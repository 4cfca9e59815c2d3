package object

// Test-only accessors: no binary reads these.

// Append is AppendOwned on copies of header and payload, so callers may
// reuse their buffers.
func (l *CheckpointLog) Append(key CheckpointKey, kind Kind, header, payload []byte) uint64 {
	return l.AppendOwned(key, kind, append([]byte(nil), header...), append([]byte(nil), payload...))
}

// Latest returns the newest version of key's state.
func (l *CheckpointLog) Latest(key CheckpointKey) (Checkpoint, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.latest[key]
	if !ok {
		return Checkpoint{}, false
	}
	return copyOut(&v.Checkpoint), true
}

// Size returns the payload size.
func (b *Blob) Size() int { return b.region.Size }
