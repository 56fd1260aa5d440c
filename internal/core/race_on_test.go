//go:build race

package core

// raceEnabled reports a -race build, under which sync.Pool drops a share of
// its Puts on purpose: allocation guards over pooled objects skip there.
const raceEnabled = true
