//go:build race

package httpapi

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops buffers at random and allocation counts mean nothing.
const raceEnabled = true
