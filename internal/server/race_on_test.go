//go:build race

package server

// raceEnabled reports that the race detector is on: sync.Pool then
// drops a share of its Puts on purpose, so allocation guards on pooled
// paths cannot hold.
const raceEnabled = true
