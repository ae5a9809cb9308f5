//go:build !race

package core

// raceAllocs is 0 without the race detector (see race_test.go).
const raceAllocs = 0
