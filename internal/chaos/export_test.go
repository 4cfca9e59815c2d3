package chaos

// Seeded reports whether the engine has made its PRNG, which it does at
// its first draw.
func (e *Engine) Seeded() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rng != nil
}
