// Package fanouttest lets tests choose the fan-out width of
// internal/fanout, which is runtime.GOMAXPROCS.
package fanouttest

import (
	"runtime"
	"strconv"
	"testing"
)

// SetGOMAXPROCS sets runtime.GOMAXPROCS to n for the rest of the test and
// restores the previous value when it ends. GOMAXPROCS is process-wide, so
// the test must not run in parallel with others: SetGOMAXPROCS goes
// through t.Setenv, which panics if the test or an ancestor called
// t.Parallel and makes a later t.Parallel call panic. The environment
// variable it sets only reaches child processes the test starts.
func SetGOMAXPROCS(t testing.TB, n int) {
	t.Helper()
	t.Setenv("GOMAXPROCS", strconv.Itoa(n))
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
