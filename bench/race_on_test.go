//go:build race

package bench

// raceEnabled reports a -race build, under which TestExperimentGoldens skips:
// it takes 150 s there against 15 s without, and every run in it is one
// goroutine driving sync compaction, so the detector has nothing to find.
const raceEnabled = true
