//go:build race

package core

// raceAllocs is what the race detector adds to an arrival's allocation
// count on its own account: one object, measured on BottomUp.Process.
const raceAllocs = 1
