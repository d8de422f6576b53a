// Candidate validation requests: the unit of work the engine's scheduler
// hands to its workers (DESIGN.md §13).
//
// Validating a candidate FD against the Pli store is a pure read — FD
// walks clusters and compressed records and mutates nothing — so any
// number of candidate validations may run concurrently, each on its own
// Scratch, as long as no goroutine mutates the shards they read. The
// engine guarantees that by maintaining the whole store before it submits
// any validation. Outcomes land in per-request slots that the engine merges in
// candidate order, so results never depend on which worker ran a request.
package validate

import (
	"sync/atomic"

	"dynfd/internal/attrset"
	"dynfd/internal/pli"
)

// Request is one candidate validation: does Lhs → Rhs hold on the store?
type Request struct {
	Lhs attrset.Set
	Rhs int
}

// Outcome is the result of one Request. For an invalid candidate, Witness
// holds a violating record pair.
type Outcome struct {
	Valid   bool
	Witness Witness
}

// testHook, when set, runs before every request validation inside One — a
// test-only injection point that lets failure-path tests drive a panicking
// validator through the engine's real worker pool (see SetTestHook).
var testHook atomic.Pointer[func(Request)]

// SetTestHook installs h (nil clears) as the test-only validation hook.
// Tests that install a hook must clear it before returning; production
// code never sets it.
func SetTestHook(h func(Request)) {
	if h == nil {
		testHook.Store(nil)
		return
	}
	testHook.Store(&h)
}

// One validates a single request on the given scratch, after running the
// test-only hook. With a nil ix the request is validated in full; with
// the batch's agree-mask index it is a pruned insert-phase validation and
// ix answers it. Every engine validation — inline or in a scheduler
// chunk — goes through One, so failure injection reaches all of them.
func One(sc *Scratch, s *pli.Store, ix *AgreeIndex, r Request) Outcome {
	if h := testHook.Load(); h != nil {
		(*h)(r)
	}
	var o Outcome
	if ix != nil {
		o.Valid, o.Witness = ix.FD(sc, r.Lhs, r.Rhs)
	} else {
		o.Valid, o.Witness = sc.FD(s, r.Lhs, r.Rhs, NoPruning)
	}
	return o
}
