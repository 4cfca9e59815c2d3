//go:build race

package freepart

// raceEnabled is set in the race build. There sync.Pool drops one item in
// four that is put back, at random, so fmt's printers and the like are
// allocated again now and then and allocation counts vary from run to run.
const raceEnabled = true
