package object

// Test-only accessors: no binary reads these.

// Append is AppendOwned on copies of header and payload, so callers may
// reuse their buffers.
func (l *CheckpointLog) Append(key CheckpointKey, kind Kind, header, payload []byte) {
	l.AppendOwned(Checkpoint{Key: key, Kind: kind, Header: append([]byte(nil), header...), Payload: append([]byte(nil), payload...)})
}

// Size returns the payload size.
func (b *Blob) Size() int { return b.region.Size }
