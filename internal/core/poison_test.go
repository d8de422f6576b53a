package core

import (
	"errors"
	"strings"
	"testing"

	"dynfd/internal/dataset"
	"dynfd/internal/fanout"
	"dynfd/internal/pli"
	"dynfd/internal/stream"
	"dynfd/internal/validate"
)

// poisonRelation builds a small bootstrapped engine whose next insert
// triggers candidate validations.
func poisonEngine(t *testing.T, workers int) *Engine {
	t.Helper()
	rel := dataset.New("r", []string{"a", "b", "c"})
	for _, row := range [][]string{
		{"1", "x", "p"}, {"1", "x", "q"}, {"2", "y", "p"}, {"3", "y", "q"},
	} {
		if err := rel.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.Workers = workers
	e, err := Bootstrap(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPanickingValidatorPoisonsEngine injects a panic into the validation
// fan-out and asserts that ApplyBatch surfaces it as an error — not a
// process crash — and that the engine then refuses all further writes.
func TestPanickingValidatorPoisonsEngine(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		e := poisonEngine(t, workers)
		validate.SetTestHook(func(validate.Request) { panic("validator boom") })
		_, err := e.ApplyBatch(stream.Batch{Changes: []stream.Change{
			{Kind: stream.Insert, Values: []string{"1", "x", "p"}},
		}})
		validate.SetTestHook(nil)
		var pe *fanout.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: ApplyBatch err = %v, want *fanout.PanicError", workers, err)
		}
		if e.Poisoned() == nil {
			t.Fatalf("workers=%d: engine not poisoned after validator panic", workers)
		}

		// The hook is gone, the next batch is perfectly valid — but the
		// engine must fail fast instead of operating on a possibly
		// inconsistent cover.
		_, err = e.ApplyBatch(stream.Batch{Changes: []stream.Change{
			{Kind: stream.Insert, Values: []string{"8", "w", "s"}},
		}})
		if err == nil {
			t.Fatalf("workers=%d: poisoned engine accepted a batch", workers)
		}
		if !strings.Contains(err.Error(), "poisoned") {
			t.Errorf("workers=%d: error does not name the poisoning: %v", workers, err)
		}

		// Reads stay available so callers can inspect the survivors.
		if got := e.FDs(); len(got) == 0 {
			t.Errorf("workers=%d: no FDs readable from poisoned engine", workers)
		}
	}
}

// TestStorePanicPoisonsEngine reaches the other fan-out: a panic during
// per-attribute Pli maintenance must also come back as an error and poison
// the engine.
func TestStorePanicPoisonsEngine(t *testing.T) {
	e := poisonEngine(t, 2)
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
	e := poisonEngine(t, 0)
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
