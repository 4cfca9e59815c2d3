//go:build !race

package freepart

// raceEnabled is set in the race build (race_test.go).
const raceEnabled = false
