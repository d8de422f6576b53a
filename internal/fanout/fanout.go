// Package fanout provides the bounded fan-out primitive behind the Pli
// store's per-attribute work: batch maintenance (pli.Store.ApplyBatch,
// DESIGN.md §10), the bulk loader, and through it snapshot loading and
// bootstrap. It is the only parallel primitive in the engine: the lattice
// sweeps run inline (DESIGN.md §13). It also defines PanicError, the one
// captured-panic error that the store and the engine share.
//
// Width: the fan-out runs at most runtime.GOMAXPROCS(0) goroutines, read
// at every call; there is no other setting. At GOMAXPROCS 1 every call
// runs inline on the caller's goroutine.
//
// Determinism contract: work items are distributed through an atomic
// cursor, so the assignment of items to goroutines is
// scheduling-dependent, but callers that give each item exclusive state
// observe results independent of that assignment and of GOMAXPROCS. The
// store relies on this: each item maintains one attribute's structures.
//
// Failure contract: a panic in any call is captured — never re-raised — and
// surfaced as a *PanicError from ForEach, carrying the worker slot and the
// panicking goroutine's stack. After a captured panic the set of completed
// calls is unspecified, so callers must treat any state the calls were
// mutating as inconsistent; the engine reacts by poisoning itself
// (core.Engine refuses further ApplyBatch calls) instead of crashing the
// process over partially applied structures.
package fanout

import (
	"fmt"
	"runtime"
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

// ForEach runs fn(i) for every i in [0, n), fanning the calls across at
// most runtime.GOMAXPROCS(0) goroutines. Work is distributed through an
// atomic cursor, so expensive items do not stall a static partition. When
// GOMAXPROCS is 1 or n <= 1 the calls run inline on the caller's goroutine
// as worker 0, in index order; otherwise ForEach blocks until all
// goroutines finished.
//
// fn must be safe to call from multiple goroutines for distinct i. A panic
// in any call — fanned or inline — is captured and returned as the first
// *PanicError observed; the panicking worker stops taking items while the
// remaining workers drain. On a non-nil error the set of completed calls is
// unspecified and any state fn was mutating must be considered
// inconsistent.
func ForEach(n int, fn func(i int)) error {
	workers := min(runtime.GOMAXPROCS(0), n)
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

// protect runs one call, converting a panic into a *PanicError.
func protect(w, i int, fn func(i int)) (pe *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			pe = &PanicError{Worker: w, Value: r, Stack: debug.Stack()}
		}
	}()
	fn(i)
	return nil
}
