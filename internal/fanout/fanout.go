// Package fanout provides the bounded worker-pool fan-out primitive behind
// the Pli store's per-attribute work: batch maintenance (pli.Store.ApplyBatch,
// DESIGN.md §10) and the bulk loader. It is the only parallel primitive in
// the engine: the lattice sweeps run inline (DESIGN.md §13). It also
// defines PanicError, the one captured-panic error that the store and the
// engine share.
//
// Determinism contract: work items are distributed through an atomic
// cursor, so the assignment of items to workers is scheduling-dependent,
// but callers that give each item (or each worker) exclusive state observe
// results independent of that assignment. The store relies on this: each
// worker maintains a disjoint set of per-attribute structures.
//
// Failure contract: a panic in any call is captured — never re-raised — and
// surfaced as a *PanicError from Run/ForEach, carrying the worker slot and
// the panicking goroutine's stack. After a captured panic the set of
// completed calls is unspecified, so callers must treat any state the calls
// were mutating as inconsistent; the engine reacts by poisoning itself
// (core.Engine refuses further ApplyBatch calls) instead of crashing the
// process over partially applied structures.
package fanout

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a panic captured during a fan-out: the first panicking
// call's worker slot, recovered value, and goroutine stack.
type PanicError struct {
	Worker int    // worker slot of the panicking call (0 in the serial path)
	Value  any    // recovered panic value
	Stack  []byte // stack of the panicking goroutine at recovery time
}

// Error renders the panic with its origin stack, so the failure site
// survives the hop across goroutines into ordinary error reporting.
func (e *PanicError) Error() string {
	return fmt.Sprintf("fanout: worker %d panicked: %v\n%s", e.Worker, e.Value, e.Stack)
}

// Run runs fn(w, i) for every i in [0, n), fanning the calls across at most
// workers goroutines; w identifies the executing worker slot (0 <= w <
// workers), so callers can hand each worker exclusive per-slot state such
// as a validation Scratch. Work is distributed through an atomic cursor, so
// expensive items do not stall a static partition. With workers <= 1 (or
// n <= 1) the calls run inline on the caller's goroutine as worker 0, in
// index order; otherwise Run blocks until all workers finished.
//
// fn must be safe to call from multiple goroutines for distinct i. A panic
// in any call — fanned or inline — is captured and returned as the first
// *PanicError observed; the panicking worker stops taking items while the
// remaining workers drain. On a non-nil error the set of completed calls is
// unspecified and any state fn was mutating must be considered
// inconsistent.
func Run(n, workers int, fn func(worker, i int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if pe := protect(0, i, fn); pe != nil {
				return pe
			}
		}
		return nil
	}
	var (
		cursor   atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[PanicError]
	)
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if pe := protect(w, i, fn); pe != nil {
					panicked.CompareAndSwap(nil, pe)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	if pe := panicked.Load(); pe != nil {
		return pe
	}
	return nil
}

// ForEach runs fn(i) for every i in [0, n), fanning the calls across at
// most workers goroutines. See Run for the full contract.
func ForEach(n, workers int, fn func(i int)) error {
	return Run(n, workers, func(_, i int) { fn(i) })
}

// protect runs one call, converting a panic into a *PanicError.
func protect(w, i int, fn func(worker, i int)) (pe *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			pe = &PanicError{Worker: w, Value: r, Stack: debug.Stack()}
		}
	}()
	fn(w, i)
	return nil
}
