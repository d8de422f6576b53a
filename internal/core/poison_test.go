package core

import (
	"errors"
	"strings"
	"testing"

	"dynfd/internal/dataset"
	"dynfd/internal/fanout"
	"dynfd/internal/fanout/fanouttest"
	"dynfd/internal/pli"
	"dynfd/internal/stream"
	"dynfd/internal/validate"
)

// poisonEngine builds a small bootstrapped engine whose next insert
// triggers candidate validations.
func poisonEngine(t *testing.T) *Engine {
	t.Helper()
	rel := dataset.New("r", []string{"a", "b", "c"})
	for _, row := range [][]string{
		{"1", "x", "p"}, {"1", "x", "q"}, {"2", "y", "p"}, {"3", "y", "q"},
	} {
		if err := rel.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	e, err := Bootstrap(rel, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPanickingValidatorPoisonsEngine injects a panic into the validation
// fan-out and asserts that ApplyBatch surfaces it as an error — not a
// process crash — and that the engine then refuses all further writes,
// with maintenance inline (GOMAXPROCS 1) and fanned out (GOMAXPROCS 4).
func TestPanickingValidatorPoisonsEngine(t *testing.T) {
	for _, procs := range []int{1, 4} {
		fanouttest.SetGOMAXPROCS(t, procs)
		e := poisonEngine(t)
		validate.SetTestHook(func(validate.Request) { panic("validator boom") })
		_, err := e.ApplyBatch(stream.Batch{Changes: []stream.Change{
			{Kind: stream.Insert, Values: []string{"1", "x", "p"}},
		}})
		validate.SetTestHook(nil)
		var pe *fanout.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("GOMAXPROCS=%d: ApplyBatch err = %v, want *fanout.PanicError", procs, err)
		}
		if e.Poisoned() == nil {
			t.Fatalf("GOMAXPROCS=%d: engine not poisoned after validator panic", procs)
		}

		// The hook is gone, the next batch is perfectly valid — but the
		// engine must fail fast instead of operating on a possibly
		// inconsistent cover.
		_, err = e.ApplyBatch(stream.Batch{Changes: []stream.Change{
			{Kind: stream.Insert, Values: []string{"8", "w", "s"}},
		}})
		if err == nil {
			t.Fatalf("GOMAXPROCS=%d: poisoned engine accepted a batch", procs)
		}
		if !strings.Contains(err.Error(), "poisoned") {
			t.Errorf("GOMAXPROCS=%d: error does not name the poisoning: %v", procs, err)
		}

		// Reads stay available so callers can inspect the survivors.
		if got := e.FDs(); len(got) == 0 {
			t.Errorf("GOMAXPROCS=%d: no FDs readable from poisoned engine", procs)
		}
	}
}

// TestStorePanicPoisonsEngine reaches the other fan-out: a panic during
// per-attribute Pli maintenance must also come back as an error and poison
// the engine.
func TestStorePanicPoisonsEngine(t *testing.T) {
	fanouttest.SetGOMAXPROCS(t, 2)
	e := poisonEngine(t)
	pli.SetApplyAttrTestHook(func(a int) {
		if a == 1 {
			panic("index boom")
		}
	})
	_, err := e.ApplyBatch(stream.Batch{Changes: []stream.Change{
		{Kind: stream.Insert, Values: []string{"9", "z", "r"}},
	}})
	pli.SetApplyAttrTestHook(nil)
	var pe *fanout.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("ApplyBatch err = %v, want *fanout.PanicError", err)
	}
	if e.Poisoned() == nil {
		t.Fatal("engine not poisoned after store worker panic")
	}
	if _, err := e.ApplyBatch(stream.Batch{}); err == nil {
		t.Fatal("poisoned engine accepted a batch")
	}
}

// TestPlanningErrorsDoNotPoison asserts the boundary of the poisoning
// rule: a batch rejected during validation/planning leaves the engine
// healthy and usable.
func TestPlanningErrorsDoNotPoison(t *testing.T) {
	t.Parallel()
	e := poisonEngine(t)
	if _, err := e.ApplyBatch(stream.Batch{Changes: []stream.Change{
		{Kind: stream.Delete, ID: 999},
	}}); err == nil {
		t.Fatal("dangling delete accepted")
	}
	if e.Poisoned() != nil {
		t.Fatalf("planning error poisoned the engine: %v", e.Poisoned())
	}
	if _, err := e.ApplyBatch(stream.Batch{Changes: []stream.Change{
		{Kind: stream.Insert, Values: []string{"9", "z", "r"}},
	}}); err != nil {
		t.Fatalf("healthy engine rejected a valid batch: %v", err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
