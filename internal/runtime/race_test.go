package runtime

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"dynfd"
)

// TestCreateDropApplyRace hammers the lifecycle from many goroutines: half
// of them fight over creating and dropping one contested tenant name while
// others apply batches to it (tolerating the lifecycle errors that
// interleaving legitimately produces) and a stable tenant absorbs traffic
// that must never fail. Run under -race in CI. Afterwards the runtime must
// be consistent: no lost engines, no double-close panics, no leaked data
// directories, and the stable tenant's state intact.
func TestCreateDropApplyRace(t *testing.T) {
	t.Parallel()
	root := t.TempDir()
	rt := openTestRuntime(t, Config{DataRoot: root})
	if err := rt.Create("stable", []string{"a", "b"}, nil); err != nil {
		t.Fatal(err)
	}

	const (
		lifecyclers = 4
		appliers    = 4
		rounds      = 40
	)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		creates int
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		t.Errorf(format, args...)
	}

	for g := 0; g < lifecyclers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				err := rt.Create("contested", []string{"x", "y"}, nil)
				switch {
				case err == nil:
					mu.Lock()
					creates++
					mu.Unlock()
				case errors.Is(err, ErrTenantExists):
					// Lost the race; fine.
				default:
					fail("create contested: %v", err)
				}
				err = rt.Drop("contested")
				if err != nil && !errors.Is(err, ErrNoSuchTenant) {
					fail("drop contested: %v", err)
				}
			}
		}()
	}
	for g := 0; g < appliers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_, err := rt.Apply("contested", []dynfd.Change{dynfd.Insert(fmt.Sprint(g), fmt.Sprint(i))})
				if err != nil && !errors.Is(err, ErrNoSuchTenant) && !errors.Is(err, ErrTenantBusy) {
					fail("apply contested: %v", err)
				}
				if _, err := rt.Apply("stable", []dynfd.Change{dynfd.Insert(fmt.Sprint(g), fmt.Sprint(i))}); err != nil {
					fail("apply stable: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if creates == 0 {
		t.Fatal("no create ever won the race; test exercised nothing")
	}

	// The stable tenant saw every one of its batches.
	info, err := rt.Info("stable")
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(appliers * rounds); info.Seq != want {
		t.Fatalf("stable tenant lost batches: seq %d, want %d", info.Seq, want)
	}

	// Settle the contested name, then verify no directory leaked: the data
	// root must hold exactly the live tenants.
	if err := rt.Drop("contested"); err != nil && !errors.Is(err, ErrNoSuchTenant) {
		t.Fatal(err)
	}
	live := map[string]bool{}
	for _, info := range rt.List() {
		live[info.Name] = true
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if !live[ent.Name()] && ent.Name() != lockName {
			t.Errorf("leaked data directory %q (live tenants %v)", ent.Name(), live)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("close after race: %v", err)
	}
}
