package runtime

import (
	"fmt"
	"sort"
	"time"

	"dynfd/internal/bench"
)

// TenantInfo is one tenant's lifecycle summary. Seq is the staged
// high-water mark; SnapshotSeq is the sequence of the published snapshot
// the read endpoints serve — the difference is the batches whose commits
// are still in flight.
type TenantInfo struct {
	Name        string   `json:"name"`
	Columns     []string `json:"columns,omitempty"`
	Records     int      `json:"records"`
	Seq         uint64   `json:"seq"`
	SnapshotSeq uint64   `json:"snapshot_seq"`
	Batches     uint64   `json:"batches"`
	Quarantined string   `json:"quarantined,omitempty"`
}

// List returns a summary of every tenant, sorted by name. Tenants still
// being created are skipped; quarantined tenants are listed with their
// quarantine reason.
func (rt *Runtime) List() []TenantInfo {
	rt.mu.Lock()
	slots := make([]*tenant, 0, len(rt.tenants))
	for _, t := range rt.tenants {
		slots = append(slots, t)
	}
	rt.mu.Unlock()
	out := make([]TenantInfo, 0, len(slots))
	for _, t := range slots {
		select {
		case <-t.ready:
		default:
			continue // creation in progress
		}
		if t.initErr != nil {
			continue
		}
		if info, ok := t.info(); ok {
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Info returns one tenant's summary.
func (rt *Runtime) Info(name string) (TenantInfo, error) {
	t, err := rt.get(name)
	if err != nil {
		return TenantInfo{}, err
	}
	info, ok := t.info()
	if !ok {
		return TenantInfo{}, fmt.Errorf("%w: %q", ErrNoSuchTenant, name)
	}
	return info, nil
}

// info snapshots the tenant's summary; ok is false once it was dropped.
// It never takes the tenant mutation lock: a GET /tenants must not queue
// behind a long-running batch, so everything comes from the published
// snapshot and atomic lifecycle state.
func (t *tenant) info() (TenantInfo, bool) {
	if t.dropped.Load() {
		return TenantInfo{}, false
	}
	info := TenantInfo{Name: t.name}
	if q := t.quarErr(); q != nil {
		info.Quarantined = q.Error()
	}
	if mon := t.monRead.Load(); mon != nil {
		snap := mon.Snapshot()
		info.Columns = snap.Columns()
		info.Records = snap.NumRecords()
		info.Seq = mon.Seq()
		info.SnapshotSeq = snap.Seq()
	}
	t.statMu.Lock()
	info.Batches = t.batches
	t.statMu.Unlock()
	return info, true
}

// KeyCheck reports whether the given columns form a unique column
// combination (no two records agree on all of them) as of the tenant's
// published snapshot. Unlike an FD-cover query, this is exact even in
// the presence of fully duplicate tuples. The scan runs over int32
// cluster ids in an open-addressing table — no per-record string
// building — and only when the snapshot's FD cover cannot already refute
// uniqueness; results are memoized per snapshot, and the call never
// blocks behind an in-flight batch.
func (rt *Runtime) KeyCheck(name string, columns []string) (unique bool, err error) {
	snap, _, err := rt.Snapshot(name)
	if err != nil {
		return false, err
	}
	if _, err := columnIndexes(snap.Columns(), columns); err != nil {
		return false, err
	}
	return snap.Unique(columns)
}

// UnaryIND is one unary inclusion dependency between columns of a tenant:
// every value of Lhs also occurs in Rhs.
type UnaryIND struct {
	Lhs string `json:"lhs"`
	Rhs string `json:"rhs"`
}

// INDs returns the tenant's unary inclusion dependencies as of its
// published snapshot, in deterministic column order, omitting trivial
// self-inclusions. The value sets come from the snapshot's frozen cluster
// directories (shared copy-on-write with the live store) and the result is
// memoized in the snapshot, so repeated queries between batches are
// free; the call never blocks behind an in-flight batch.
func (rt *Runtime) INDs(name string) ([]UnaryIND, error) {
	snap, _, err := rt.Snapshot(name)
	if err != nil {
		return nil, err
	}
	cols := snap.Columns()
	var out []UnaryIND
	for _, d := range snap.INDs() {
		out = append(out, UnaryIND{Lhs: cols[d.Lhs], Rhs: cols[d.Rhs]})
	}
	return out, nil
}

// TenantMetrics is one tenant's operational metrics: batch latency
// percentiles over the recent window, WAL fsync cost, and cover sizes.
type TenantMetrics struct {
	Name        string `json:"name"`
	Records     int    `json:"records"`
	Seq         uint64 `json:"seq"`
	SnapshotSeq uint64 `json:"snapshot_seq"`
	Batches     uint64 `json:"batches"`
	Quarantined string `json:"quarantined,omitempty"`

	// Batch latency over the retained window, in nanoseconds.
	LatencyCount int   `json:"latency_count"`
	LatencyAvgNs int64 `json:"latency_avg_ns"`
	LatencyP50Ns int64 `json:"latency_p50_ns"`
	LatencyP90Ns int64 `json:"latency_p90_ns"`
	LatencyP99Ns int64 `json:"latency_p99_ns"`

	// WAL fsync activity since the engine was opened.
	WALSyncs       int   `json:"wal_syncs"`
	WALSyncTimeNs  int64 `json:"wal_sync_time_ns"`
	FDCoverSize    int   `json:"fd_cover_size"`
	NonFDCoverSize int   `json:"non_fd_cover_size"`
}

// Metrics returns per-tenant operational metrics, sorted by name.
func (rt *Runtime) Metrics() []TenantMetrics {
	rt.mu.Lock()
	slots := make([]*tenant, 0, len(rt.tenants))
	for _, t := range rt.tenants {
		slots = append(slots, t)
	}
	rt.mu.Unlock()
	out := make([]TenantMetrics, 0, len(slots))
	for _, t := range slots {
		select {
		case <-t.ready:
		default:
			continue
		}
		if t.initErr != nil {
			continue
		}
		if m, ok := t.metrics(); ok {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TenantMetrics returns one tenant's metrics.
func (rt *Runtime) TenantMetrics(name string) (TenantMetrics, error) {
	t, err := rt.get(name)
	if err != nil {
		return TenantMetrics{}, err
	}
	m, ok := t.metrics()
	if !ok {
		return TenantMetrics{}, fmt.Errorf("%w: %q", ErrNoSuchTenant, name)
	}
	return m, nil
}

// metrics snapshots one tenant's metrics. Like info it never takes the
// tenant mutation lock: everything comes from the published snapshot,
// the (internally synchronized) WAL sync counters, and atomic state.
func (t *tenant) metrics() (TenantMetrics, bool) {
	if t.dropped.Load() {
		return TenantMetrics{}, false
	}
	m := TenantMetrics{Name: t.name}
	if q := t.quarErr(); q != nil {
		m.Quarantined = q.Error()
	}
	if mon := t.monRead.Load(); mon != nil {
		snap := mon.Snapshot()
		m.Records = snap.NumRecords()
		m.Seq = mon.Seq()
		m.SnapshotSeq = snap.Seq()
		ws := mon.WALStats()
		m.WALSyncs = ws.Syncs
		m.WALSyncTimeNs = int64(ws.SyncTime)
		m.FDCoverSize = len(snap.FDs())
		m.NonFDCoverSize = len(snap.NonFDs())
	}

	t.statMu.Lock()
	m.Batches = t.batches
	lat := toTimings(t.lat)
	t.statMu.Unlock()
	m.LatencyCount = len(lat)
	m.LatencyAvgNs = int64(lat.Avg())
	m.LatencyP50Ns = int64(lat.Percentile(50))
	m.LatencyP90Ns = int64(lat.Percentile(90))
	m.LatencyP99Ns = int64(lat.Percentile(99))
	return m, true
}

func toTimings(d []time.Duration) bench.Timings {
	out := make(bench.Timings, len(d))
	copy(out, d)
	return out
}

// columnIndexes resolves column names against a schema.
func columnIndexes(schema, columns []string) ([]int, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("runtime: at least one column required")
	}
	idx := make([]int, 0, len(columns))
	for _, c := range columns {
		found := -1
		for i, s := range schema {
			if s == c {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("runtime: unknown column %q", c)
		}
		idx = append(idx, found)
	}
	return idx, nil
}
