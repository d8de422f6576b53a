package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynfd"
	"dynfd/internal/bench"
)

func openTestRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	if cfg.DataRoot == "" {
		cfg.DataRoot = t.TempDir()
	}
	rt, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt
}

func TestValidateTenantName(t *testing.T) {
	t.Parallel()
	for _, ok := range []string{"a", "tenant-1", "a.b_c", "0x9", "x.."} {
		if err := ValidateTenantName(ok); err != nil {
			t.Errorf("ValidateTenantName(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "A", "-x", ".hidden", "..", "a/b", "a b", "ü", "x\n", string(make([]byte, 65))} {
		if err := ValidateTenantName(bad); err == nil {
			t.Errorf("ValidateTenantName(%q) accepted", bad)
		}
	}
}

func TestTenantLifecycle(t *testing.T) {
	t.Parallel()
	rt := openTestRuntime(t, Config{})

	if err := rt.Create("alpha", []string{"zip", "city"}, [][]string{{"14482", "Potsdam"}, {"10115", "Berlin"}}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Create("alpha", []string{"zip"}, nil); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("duplicate create = %v, want ErrTenantExists", err)
	}
	if err := rt.Create("beta", []string{"a", "b", "c"}, nil); err != nil {
		t.Fatal(err)
	}

	list := rt.List()
	if len(list) != 2 || list[0].Name != "alpha" || list[1].Name != "beta" {
		t.Fatalf("List = %+v", list)
	}
	if list[0].Records != 2 {
		t.Fatalf("alpha records = %d, want 2", list[0].Records)
	}

	res, err := rt.Apply("alpha", []dynfd.Change{dynfd.Insert("14482", "Golm")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 1 || len(res.InsertedIDs) != 1 {
		t.Fatalf("ApplyResult = %+v", res)
	}
	if _, err := rt.Apply("gamma", []dynfd.Change{dynfd.Insert("x")}); !errors.Is(err, ErrNoSuchTenant) {
		t.Fatalf("apply to unknown tenant = %v", err)
	}
	// A rejected batch names the tenant and leaves the engine healthy.
	if _, err := rt.Apply("alpha", []dynfd.Change{dynfd.Insert("only-one-value")}); err == nil {
		t.Fatal("bad-arity batch accepted")
	} else if !strings.Contains(err.Error(), `"alpha"`) {
		t.Fatalf("rejected batch error does not name tenant: %v", err)
	}
	if _, err := rt.Apply("alpha", []dynfd.Change{dynfd.Insert("10627", "Berlin")}); err != nil {
		t.Fatalf("healthy tenant refused batch after rejection: %v", err)
	}

	// Independent engines: beta is untouched by alpha's traffic.
	info, err := rt.Info("beta")
	if err != nil || info.Records != 0 || info.Seq != 0 {
		t.Fatalf("beta info = %+v, %v", info, err)
	}

	if err := rt.Drop("beta"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Drop("beta"); !errors.Is(err, ErrNoSuchTenant) {
		t.Fatalf("double drop = %v", err)
	}
	if _, err := os.Stat(filepath.Join(rt.DataRoot(), "beta")); !os.IsNotExist(err) {
		t.Fatalf("dropped tenant directory still exists: %v", err)
	}
	// The name is reusable after the drop, starting empty.
	if err := rt.Create("beta", []string{"x", "y"}, nil); err != nil {
		t.Fatalf("recreate after drop: %v", err)
	}
	if info, err := rt.Info("beta"); err != nil || info.Records != 0 {
		t.Fatalf("recreated beta = %+v, %v", info, err)
	}
}

func TestRecoveryAcrossReopen(t *testing.T) {
	t.Parallel()
	root := t.TempDir()
	rt := openTestRuntime(t, Config{DataRoot: root})
	if err := rt.Create("t1", []string{"a", "b"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Apply("t1", []dynfd.Change{dynfd.Insert("1", "x"), dynfd.Insert("2", "y")}); err != nil {
		t.Fatal(err)
	}
	var wantFDs []string
	rt.View("t1", func(mon *dynfd.DurableMonitor) error {
		for _, f := range mon.FDs() {
			wantFDs = append(wantFDs, mon.FormatFD(f))
		}
		return nil
	})
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen the same root: the tenant must come back with identical state.
	rt2 := openTestRuntime(t, Config{DataRoot: root})
	info, err := rt2.Info("t1")
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 2 {
		t.Fatalf("recovered records = %d, want 2", info.Records)
	}
	var gotFDs []string
	rt2.View("t1", func(mon *dynfd.DurableMonitor) error {
		for _, f := range mon.FDs() {
			gotFDs = append(gotFDs, mon.FormatFD(f))
		}
		return nil
	})
	if len(gotFDs) != len(wantFDs) {
		t.Fatalf("recovered FDs = %v, want %v", gotFDs, wantFDs)
	}
	for i := range gotFDs {
		if gotFDs[i] != wantFDs[i] {
			t.Fatalf("recovered FDs = %v, want %v", gotFDs, wantFDs)
		}
	}
}

// TestStartupQuarantine: a tenant directory whose store cannot be opened
// quarantines that tenant — named in the error, still listed, rejecting
// work with a QuarantineError — while healthy tenants keep serving.
func TestStartupQuarantine(t *testing.T) {
	t.Parallel()
	root := t.TempDir()
	rt := openTestRuntime(t, Config{DataRoot: root})
	if err := rt.Create("good", []string{"a", "b"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Create("bad", []string{"a", "b"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt bad's checkpoint beyond recovery.
	cp := filepath.Join(root, "bad", "checkpoint.json")
	if err := os.WriteFile(cp, []byte("{definitely not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	rt2 := openTestRuntime(t, Config{DataRoot: root})
	list := rt2.List()
	if len(list) != 2 {
		t.Fatalf("List after corrupt recovery = %+v", list)
	}
	var badInfo TenantInfo
	for _, info := range list {
		if info.Name == "bad" {
			badInfo = info
		}
	}
	if badInfo.Quarantined == "" {
		t.Fatalf("corrupt tenant not quarantined: %+v", badInfo)
	}

	// Writes and reads to the quarantined tenant fail with a tenant-named
	// QuarantineError; the healthy tenant is unaffected.
	_, err := rt2.Apply("bad", []dynfd.Change{dynfd.Insert("1", "2")})
	var q *QuarantineError
	if !errors.As(err, &q) || q.Tenant != "bad" {
		t.Fatalf("apply to quarantined tenant = %v", err)
	}
	if err := rt2.View("bad", func(*dynfd.DurableMonitor) error { return nil }); !errors.As(err, &q) {
		t.Fatalf("view of unrecovered tenant = %v", err)
	}
	if _, err := rt2.Apply("good", []dynfd.Change{dynfd.Insert("1", "2")}); err != nil {
		t.Fatalf("healthy tenant failed alongside quarantine: %v", err)
	}
	// Dropping the quarantined tenant clears the name for reuse.
	if err := rt2.Drop("bad"); err != nil {
		t.Fatal(err)
	}
	if err := rt2.Create("bad", []string{"x"}, nil); err != nil {
		t.Fatalf("recreate after quarantined drop: %v", err)
	}
}

func TestAdmissionCaps(t *testing.T) {
	t.Parallel()
	limits := DefaultLimits()
	limits.MaxTenants = 2
	rt := openTestRuntime(t, Config{Limits: limits})
	if err := rt.Create("t1", []string{"a"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Create("t2", []string{"a"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Create("t3", []string{"a"}, nil); !errors.Is(err, ErrTooManyTenants) {
		t.Fatalf("create over tenant cap = %v", err)
	}
	if err := rt.Drop("t2"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Create("t3", []string{"a"}, nil); err != nil {
		t.Fatalf("create after drop under cap = %v", err)
	}
}

// holdTenants takes the named tenants' mutation locks through View and
// keeps them until the returned release runs, so Apply calls on those
// tenants are admitted and then wait.
func holdTenants(t *testing.T, rt *Runtime, names ...string) (release func()) {
	t.Helper()
	held := make(chan struct{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := rt.View(name, func(*dynfd.DurableMonitor) error {
				held <- struct{}{}
				<-done
				return nil
			}); err != nil {
				t.Error(err)
			}
		}()
		<-held
	}
	return func() {
		close(done)
		wg.Wait()
	}
}

// TestInFlightCaps: while View holds a tenant's mutation lock, Apply calls
// on it are admitted and wait. The call past Limits.MaxTenantInFlight
// fails with ErrTenantBusy and, over two held tenants, the call past
// Limits.MaxInFlight fails with ErrOverloaded; the rejection is the only
// call that returns while the locks are held. A rejected batch never
// reaches the log: once the locks are released, each tenant's seq has
// moved by its admitted batches only.
func TestInFlightCaps(t *testing.T) {
	t.Parallel()
	limits := DefaultLimits()
	limits.MaxTenantInFlight = 2
	limits.MaxInFlight = 3
	rt := openTestRuntime(t, Config{Limits: limits})
	for _, name := range []string{"a", "b"} {
		if err := rt.Create(name, []string{"k", "v"}, [][]string{{"k0", "v"}}); err != nil {
			t.Fatal(err)
		}
	}
	seq := func(name string) uint64 {
		t.Helper()
		_, s, err := rt.Snapshot(name)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	type result struct {
		tenant string
		err    error
	}
	var next atomic.Int64
	// fire runs one single-insert Apply per entry of tenants concurrently.
	fire := func(tenants ...string) <-chan result {
		out := make(chan result, len(tenants))
		for _, name := range tenants {
			k := fmt.Sprint("k", next.Add(1))
			go func() {
				_, err := rt.Apply(name, []dynfd.Change{dynfd.Insert(k, "v")})
				out <- result{name, err}
			}()
		}
		return out
	}
	// check holds the tenants and fires the applies. The first result to
	// arrive must be the one rejection, with want, and must leave every
	// seq untouched; the others must all commit once released.
	check := func(hold []string, applies []string, want error) {
		t.Helper()
		base := map[string]uint64{}
		for _, name := range hold {
			base[name] = seq(name)
		}
		release := holdTenants(t, rt, hold...)
		results := fire(applies...)
		var rejected result
		select {
		case rejected = <-results:
		case <-time.After(10 * time.Second):
			release()
			t.Fatalf("no Apply was rejected while %v were held", hold)
		}
		if !errors.Is(rejected.err, want) {
			release()
			t.Fatalf("first Apply to return = %v, want %v", rejected.err, want)
		}
		for _, name := range hold {
			if got := seq(name); got != base[name] {
				release()
				t.Fatalf("tenant %s: seq %d after the rejection, want %d", name, got, base[name])
			}
		}
		release()
		grew := map[string]uint64{}
		for _, name := range applies {
			grew[name]++
		}
		grew[rejected.tenant]--
		for range len(applies) - 1 {
			if r := <-results; r.err != nil {
				t.Fatalf("admitted Apply on %s = %v", r.tenant, r.err)
			}
		}
		for _, name := range hold {
			if got := seq(name); got != base[name]+grew[name] {
				t.Fatalf("tenant %s: seq %d after the admitted batches, want %d", name, got, base[name]+grew[name])
			}
		}
	}
	check([]string{"a"}, []string{"a", "a", "a"}, ErrTenantBusy)
	check([]string{"a", "b"}, []string{"a", "a", "b", "b"}, ErrOverloaded)
}

func TestQueriesKeysINDsViolations(t *testing.T) {
	t.Parallel()
	rt := openTestRuntime(t, Config{})
	rows := [][]string{
		{"1", "a", "a"},
		{"2", "b", "b"},
		{"3", "a", "a"},
	}
	if err := rt.Create("q", []string{"id", "x", "y"}, rows); err != nil {
		t.Fatal(err)
	}
	unique, err := rt.KeyCheck("q", []string{"id"})
	if err != nil || !unique {
		t.Fatalf("KeyCheck(id) = %v, %v; want unique", unique, err)
	}
	unique, err = rt.KeyCheck("q", []string{"x"})
	if err != nil || unique {
		t.Fatalf("KeyCheck(x) = %v, %v; want not unique", unique, err)
	}
	if _, err := rt.KeyCheck("q", []string{"nope"}); err == nil {
		t.Fatal("KeyCheck of unknown column accepted")
	}
	inds, err := rt.INDs("q")
	if err != nil {
		t.Fatal(err)
	}
	// x and y carry identical values: both inclusions must be reported,
	// and nothing fits inside the key column.
	want := map[UnaryIND]bool{{Lhs: "x", Rhs: "y"}: true, {Lhs: "y", Rhs: "x"}: true}
	if len(inds) != 2 || !want[inds[0]] || !want[inds[1]] {
		t.Fatalf("INDs = %+v", inds)
	}
	// Duplicate full rows: {x} -> y holds, but x is not a key — the
	// record-scan key check must not be fooled by the FD cover.
	if _, err := rt.Apply("q", []dynfd.Change{dynfd.Insert("4", "c", "c")}); err != nil {
		t.Fatal(err)
	}
	err = rt.View("q", func(mon *dynfd.DurableMonitor) error {
		holds, err := mon.Holds([]string{"x"}, "y")
		if err != nil {
			return err
		}
		if !holds {
			t.Error("{x} -> y should hold")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if unique, _ := rt.KeyCheck("q", []string{"x"}); unique {
		t.Fatal("x reported unique despite duplicate values")
	}
}

func TestMetrics(t *testing.T) {
	t.Parallel()
	rt := openTestRuntime(t, Config{})
	if err := rt.Create("m", []string{"a", "b"}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := rt.Apply("m", []dynfd.Change{dynfd.Insert("1", "2")}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := rt.TenantMetrics("m")
	if err != nil {
		t.Fatal(err)
	}
	if m.Batches != 3 || m.LatencyCount != 3 {
		t.Fatalf("metrics batches/latency = %d/%d, want 3/3", m.Batches, m.LatencyCount)
	}
	if m.LatencyP99Ns < m.LatencyP50Ns || m.LatencyAvgNs <= 0 {
		t.Fatalf("latency percentiles inconsistent: %+v", m)
	}
	if m.WALSyncs != 3 || m.WALSyncTimeNs <= 0 {
		t.Fatalf("WAL sync metrics = %d syncs / %d ns, want 3 / >0", m.WALSyncs, m.WALSyncTimeNs)
	}
	if m.FDCoverSize == 0 {
		t.Fatalf("FD cover size = 0: %+v", m)
	}
	all := rt.Metrics()
	if len(all) != 1 || all[0].Name != "m" {
		t.Fatalf("Metrics() = %+v", all)
	}
}

func TestClosedRuntimeRefusesWork(t *testing.T) {
	t.Parallel()
	rt := openTestRuntime(t, Config{})
	if err := rt.Create("c", []string{"a"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Create("d", []string{"a"}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close = %v", err)
	}
	if _, err := rt.Apply("c", []dynfd.Change{dynfd.Insert("1")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply after close = %v", err)
	}
	if rt.Ready() {
		t.Fatal("closed runtime reports ready")
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("second close = %v", err)
	}
}

// TestPerTenantWorkersOverride checks that tenants from builds with a
// per-tenant worker count still recover: a tenant directory holding the
// legacy tenant.json sidecar ({"workers":2}) and a runtime opened with the
// deprecated Config.Workers both open without error, serve the FDs they
// served before the restart, and take batches. The sidecar is never read.
func TestPerTenantWorkersOverride(t *testing.T) {
	t.Parallel()
	root := t.TempDir()
	rt := openTestRuntime(t, Config{DataRoot: root, Workers: 4})

	if err := rt.CreateWithOptions("tuned", []string{"zip", "city"},
		[][]string{{"14482", "Potsdam"}, {"14482", "Potsdam"}, {"10115", "Berlin"}},
		CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Create("plain", []string{"zip", "city"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "tuned", "tenant.json"), []byte(`{"workers":2}`), 0o644); err != nil {
		t.Fatal(err)
	}

	var before []dynfd.FD
	if err := rt.View("tuned", func(m *dynfd.DurableMonitor) error {
		before = m.FDs()
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	rt2 := openTestRuntime(t, Config{DataRoot: root, Workers: 2})
	if err := rt2.View("tuned", func(m *dynfd.DurableMonitor) error {
		if got := m.FDs(); !reflect.DeepEqual(got, before) {
			t.Errorf("recovered tenant reports FDs %v, want %v", got, before)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tuned", "plain"} {
		if _, err := rt2.Apply(name, []dynfd.Change{dynfd.Insert("10115", "Potsdam")}); err != nil {
			t.Fatalf("apply to %s after recovery: %v", name, err)
		}
	}
}

// TestOpenLocksDataRoot: a data root serves one runtime at a time. A
// second Open over a live root fails with an error naming the root, and
// once the first runtime closes, the root opens again with its tenants.
func TestOpenLocksDataRoot(t *testing.T) {
	t.Parallel()
	root := t.TempDir()
	rt, err := Open(Config{DataRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Create("alpha", []string{"zip", "city"}, [][]string{{"14482", "Potsdam"}}); err != nil {
		t.Fatal(err)
	}
	if rt2, err := Open(Config{DataRoot: root}); err == nil {
		rt2.Close()
		t.Fatal("second Open over a live data root succeeded")
	} else if !strings.Contains(err.Error(), root) {
		t.Fatalf("second Open error = %v, want it to name %s", err, root)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	rt3 := openTestRuntime(t, Config{DataRoot: root})
	if info, err := rt3.Info("alpha"); err != nil || info.Records != 1 {
		t.Fatalf("reopened tenant = %+v, %v; want alpha with 1 record", info, err)
	}
}

// TestLatencyStatsMatchBench: /metrics sorts the latency window once and
// reads the mean and the nearest-rank percentiles from it; the figures
// equal bench.Timings' on random windows, the empty one and one of one.
func TestLatencyStatsMatchBench(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 7, 99, 100, 101, 512} {
		for range 20 {
			window := make([]time.Duration, n)
			for i := range window {
				window[i] = time.Duration(r.Int63n(int64(50 * time.Millisecond)))
			}
			tn := &tenant{name: "t", lat: window}
			m, ok := tn.metrics()
			if !ok {
				t.Fatal("metrics of a live tenant not ok")
			}
			want := bench.Timings(window)
			if m.LatencyCount != n || m.LatencyAvgNs != int64(want.Avg()) ||
				m.LatencyP50Ns != int64(want.Percentile(50)) ||
				m.LatencyP90Ns != int64(want.Percentile(90)) ||
				m.LatencyP99Ns != int64(want.Percentile(99)) {
				t.Fatalf("window of %d: count %d avg %d p50 %d p90 %d p99 %d; bench.Timings avg %d p50 %d p90 %d p99 %d",
					n, m.LatencyCount, m.LatencyAvgNs, m.LatencyP50Ns, m.LatencyP90Ns, m.LatencyP99Ns,
					want.Avg(), want.Percentile(50), want.Percentile(90), want.Percentile(99))
			}
		}
	}
}
