package ipc

// Test-only accessors: no binary reads these.

// Call issues one request and returns its response, charging the IPC
// round-trip plus per-byte copy costs to the virtual clock. Application
// errors returned by the handler come back as errors; a crash comes back
// as ErrAgentCrashed.
func (c *Conn) Call(kind uint32, payload []byte) ([]byte, error) {
	return c.CallSeq(c.NextSeq(), kind, payload)
}

// LastSeq returns the most recently assigned sequence number.
func (c *Conn) LastSeq() uint64 { return c.seq.Load() }
