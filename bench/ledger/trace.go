package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"dynfd"
	"dynfd/internal/core"
	"dynfd/internal/dataset"
	"dynfd/internal/httpapi"
	"dynfd/internal/repl"
	"dynfd/internal/runtime"
	"dynfd/internal/stream"
)

// recorder times the API handler per request, keyed by the batch or read
// index the client put in a request header.
type recorder struct {
	mu     sync.Mutex
	writes map[int]time.Duration
	reads  map[int]time.Duration
}

func newRecorder() *recorder {
	return &recorder{writes: make(map[int]time.Duration), reads: make(map[int]time.Duration)}
}

func (r *recorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, req)
		d := time.Since(start)
		into := r.writes
		raw := req.Header.Get(batchHeader)
		if raw == "" {
			into, raw = r.reads, req.Header.Get(readHeader)
		}
		i, err := strconv.Atoi(raw)
		if err != nil || i < 0 {
			return
		}
		r.mu.Lock()
		into[i] = d
		r.mu.Unlock()
	})
}

// phaseTime is the engine's cumulative time in the three phases of a
// batch (paper Fig. 1): structure maintenance, delete phase, insert phase.
func phaseTime(s dynfd.Stats) time.Duration {
	return s.StructureTime + s.DeletePhaseTime + s.InsertPhaseTime
}

// counters are the cumulative engine and WAL counters of one tenant.
type counters struct {
	stats dynfd.Stats
	wal   dynfd.WALStats
}

func tenantCounters(rt *runtime.Runtime) (counters, error) {
	var c counters
	err := rt.View(tenantName, func(m *dynfd.DurableMonitor) error {
		c.stats, c.wal = m.Stats(), m.WALStats()
		return nil
	})
	return c, err
}

// batchLayers is one acknowledged batch's HTTP round trip split into
// per-layer self times. Every field is non-negative and they sum to the
// round trip.
type batchLayers struct {
	rtt         time.Duration // the client round trip being split
	transport   time.Duration // client round trip − handler
	writeSelf   time.Duration // handler on the batch sent to an unknown tenant: decode, route, encode
	queue       time.Duration // loaded handler − unloaded service (writeSelf + runtimeSelf + stage + wait)
	runtimeSelf time.Duration // Apply − the runtime's own stage-to-durable latency of the batch
	stageSelf   time.Duration // stage − engine phases − results build
	wait        time.Duration // Commit.Wait: group fsync and publish
	core        time.Duration // the engine's phase timers for the batch
	build       time.Duration // Engine.BuildResults
}

func (l batchLayers) sum() time.Duration {
	return l.transport + l.writeSelf + l.queue + l.runtimeSelf + l.stageSelf + l.wait + l.core + l.build
}

// passTimes are one batch's times in every pass.
type passTimes struct {
	rtt, handler             time.Duration // http pass (loaded)
	reject, apply, committed time.Duration // runtime pass (unloaded)
	stage, wait, phases      time.Duration // durable pass
	build                    time.Duration // core pass
}

// decompose splits a batch's time across the layers: each layer's time is
// its entry time minus the next-lower one's for the same batch, taken
// within one pass where the pass observes both. The loaded handler time
// minus the unloaded service time (the sum of the layers below it) is the
// queue. When noise between passes makes the unloaded service time
// exceed the loaded handler, the queue is 0 and the service layers are
// scaled down in proportion to fit the handler, so the layers always sum
// to the round trip.
func decompose(p passTimes) batchLayers {
	l := batchLayers{
		rtt:         p.rtt,
		transport:   max(p.rtt-p.handler, 0),
		writeSelf:   p.reject,
		runtimeSelf: max(p.apply-p.committed, 0),
		wait:        p.wait,
		core:        min(p.phases, p.stage),
	}
	l.build = min(p.build, p.stage-l.core)
	l.stageSelf = p.stage - l.core - l.build
	handler := p.rtt - l.transport
	service := l.writeSelf + l.runtimeSelf + p.stage + p.wait
	if service <= handler {
		l.queue = handler - service
		return l
	}
	f := float64(handler) / float64(service)
	scale := func(d time.Duration) time.Duration { return time.Duration(f * float64(d)) }
	l.writeSelf, l.runtimeSelf, l.stageSelf = scale(l.writeSelf), scale(l.runtimeSelf), scale(l.stageSelf)
	l.wait, l.core = scale(l.wait), scale(l.core)
	l.build = max(handler-l.writeSelf-l.runtimeSelf-l.stageSelf-l.wait-l.core, 0)
	return l
}

// runTraced is the layer-descent run. It drives the workload over HTTP
// twice, half the run each: untraced as the overhead reference, then
// with the handler timed and the engines' counters read around the pass.
// It then replays exactly the batches the traced pass acknowledged, in
// ack order, into fresh bootstrap states through runtime.Apply, through
// DurableMonitor.ApplyStaged and Commit.Wait, and through
// Engine.ApplyBatch and Engine.BuildResults — one unloaded pass per layer.
// It also returns every acknowledged batch's layer split, in ack order.
func runTraced(w workload, o options) (*runResult, []batchLayers, error) {
	in, err := generate(w, o.seed, o.seconds, o.scale)
	if err != nil {
		return nil, nil, err
	}
	res := &runResult{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: true}
	half := seconds(o.seconds / 2)

	// One throw-away set-up first, as the untraced run's repeated set-ups
	// do, so the reference pass does not run on a cold process.
	dir, err := os.MkdirTemp(o.dir, w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	warm, _, err := openStack(dir, in, nil)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	warm.close()
	ref, err := httpPass(w, o, in, half, nil)
	if err != nil {
		return nil, nil, err
	}
	res.count(ref.lr)
	for _, p := range ref.problems {
		res.fail(errors.New(p))
	}

	rec := newRecorder()
	hp, err := httpPass(w, o, in, half, rec)
	if err != nil {
		return nil, nil, err
	}
	lr := hp.lr
	res.count(lr)
	for _, p := range hp.problems {
		res.fail(errors.New(p))
	}
	applied := lr.applied()
	if len(applied) == 0 {
		return nil, nil, errors.New("the traced pass acknowledged no batch")
	}
	want := hp.want
	rp, err := runtimePass(w, o, in, applied, want)
	if err != nil {
		return nil, nil, err
	}
	dp, err := durablePass(o, in, applied, want)
	if err != nil {
		return nil, nil, err
	}
	cp, err := corePass(in, applied, w.batch, want)
	if err != nil {
		return nil, nil, err
	}
	for _, pass := range [][]string{rp.problems, dp.problems, cp.problems} {
		for _, p := range pass {
			res.fail(errors.New(p))
		}
	}
	res.Attempted += 3 * len(applied)

	layers := make([]batchLayers, len(applied))
	var transports []time.Duration
	for k, a := range lr.acks {
		handler, ok := rec.writes[a.batch]
		if !ok {
			return nil, nil, fmt.Errorf("no handler timing for batch %d", a.batch)
		}
		layers[k] = decompose(passTimes{
			rtt: lr.writeRTT[k], handler: handler,
			reject: rp.reject[k], apply: rp.apply[k], committed: rp.committed[k],
			stage: dp.stage[k], wait: dp.wait[k], phases: dp.phases[k],
			build: cp.build[k],
		})
		transports = append(transports, layers[k].transport)
	}
	var readHandlers []time.Duration
	for k, j := range lr.readIdx {
		h, ok := rec.reads[j]
		if !ok {
			return nil, nil, fmt.Errorf("no handler timing for read %d", j)
		}
		readHandlers = append(readHandlers, h)
		transports = append(transports, max(0, lr.readRTT[k]-h))
	}
	field := func(f func(batchLayers) time.Duration, unit time.Duration) []float64 {
		out := make([]float64, len(layers))
		for i, l := range layers {
			out[i] = float64(f(l)) / float64(unit)
		}
		return out
	}
	n := len(applied)
	nb := float64(n)
	changes := nb * float64(w.batch)
	after, before := cp.after, cp.before
	followerEngine := phaseTime(hp.followerAfter.stats) - phaseTime(hp.followerBefore.stats)
	syncs := hp.primaryAfter.wal.Syncs - hp.primaryBefore.wal.Syncs
	syncTime := hp.primaryAfter.wal.SyncTime - hp.primaryBefore.wal.SyncTime
	late := asUnit(lr.late, time.Millisecond)
	query := asUnit(rp.queries, time.Microsecond)
	refCommit := asUnit(ref.lr.commits(), time.Millisecond)

	m := &res.Metrics
	// End-to-end tails, from the untraced reference pass: their run-to-run
	// spread is too wide to bound them as end-to-end metrics.
	refRead := asUnit(ref.lr.reads, time.Microsecond)
	refLag := asUnit(ref.lags, time.Millisecond)
	m.add("e2e.commit_p95_ms", "ms", quantile(refCommit, 0.95), len(refCommit))
	m.add("e2e.read_p99_us", "us", quantile(refRead, 0.99), len(refRead))
	m.add("e2e.repl_lag_p95_ms", "ms", quantile(refLag, 0.95), len(refLag))
	m.add("httpapi.transport_us_p50", "us", median(asUnit(transports, time.Microsecond)), len(transports))
	m.add("httpapi.write_self_us_p50", "us", median(field(func(l batchLayers) time.Duration { return l.writeSelf }, time.Microsecond)), n)
	m.add("httpapi.read_self_us_p50", "us", median(asUnit(readHandlers, time.Microsecond))-median(query), len(readHandlers))
	m.add("runtime.self_us_p50", "us", median(field(func(l batchLayers) time.Duration { return l.runtimeSelf }, time.Microsecond)), n)
	queue := field(func(l batchLayers) time.Duration { return l.queue }, time.Millisecond)
	m.add("runtime.queue_ms_p50", "ms", median(queue), n)
	m.add("runtime.queue_ms_p95", "ms", quantile(queue, 0.95), n)
	m.add("durable.stage_self_ms_p50", "ms", median(field(func(l batchLayers) time.Duration { return l.stageSelf }, time.Millisecond)), n)
	waits := field(func(l batchLayers) time.Duration { return l.wait }, time.Microsecond)
	m.add("durable.wait_us_p50", "us", median(waits), n)
	m.add("durable.wait_us_p95", "us", quantile(waits, 0.95), n)
	m.add("durable.checkpoint_ms", "ms", median(asUnit(hp.checkpoints, time.Millisecond)), len(hp.checkpoints))
	m.add("durable.checkpoint_mb", "MiB", float64(hp.checkpointBytes)/(1<<20), 1)
	m.add("wal.syncs_per_batch", "count", float64(syncs)/nb, n)
	m.add("wal.sync_us_mean", "us", ratio(float64(syncTime)/float64(time.Microsecond), float64(syncs)), n)
	coreMS := asUnit(cp.apply, time.Millisecond)
	m.add("core.apply_ms_p50", "ms", median(coreMS), n)
	m.add("core.apply_ms_p95", "ms", quantile(coreMS, 0.95), n)
	m.add("core.insert_phase_ms_per_batch", "ms", float64(after.InsertPhaseTime-before.InsertPhaseTime)/float64(time.Millisecond)/nb, n)
	m.add("core.delete_phase_ms_per_batch", "ms", float64(after.DeletePhaseTime-before.DeletePhaseTime)/float64(time.Millisecond)/nb, n)
	m.add("pli.maintain_ms_per_batch", "ms", float64(after.StructureTime-before.StructureTime)/float64(time.Millisecond)/nb, n)
	m.add("validate.validations_per_batch", "count", float64(after.Validations-before.Validations)/nb, n)
	m.add("validate.skipped_per_batch", "count", float64(after.SkippedValidations-before.SkippedValidations)/nb, n)
	m.add("validate.delta_pruned_per_batch", "count", float64(after.DeltaPruned-before.DeltaPruned)/nb, n)
	m.add("core.comparisons_per_batch", "count", float64(after.Comparisons-before.Comparisons)/nb, n)
	m.add("sched.spec_hit_ratio", "ratio", ratio(float64(after.SpeculativeHits-before.SpeculativeHits), float64(after.SpeculativeValidations-before.SpeculativeValidations)), n)
	m.add("sched.steals_per_batch", "count", float64(after.ChunksStolen-before.ChunksStolen)/nb, n)
	m.add("results.build_ms_p50", "ms", median(asUnit(cp.build, time.Millisecond)), n)
	m.add("results.query_us_p50", "us", median(query), len(query))
	m.add("results.query_us_p99", "us", quantile(query, 0.99), len(query))
	m.add("repl.follower_engine_ms_per_batch", "ms", float64(followerEngine)/float64(time.Millisecond)/nb, n)
	m.add("repl.follower_syncs_per_batch", "count", float64(hp.followerAfter.wal.Syncs-hp.followerBefore.wal.Syncs)/nb, n)
	m.add("repl.seqs_per_publish", "count", ratio(float64(hp.seqs), float64(hp.advances)), n)
	m.add("go.alloc_mb_per_1k_changes", "MiB", float64(hp.allocBytes)/(1<<20)/changes*1000, n)
	m.add("go.gc_pause_ms_total", "ms", float64(hp.gcPause)/float64(time.Millisecond), n)
	m.add("loadgen.late_p99_ms", "ms", quantile(late, 0.99), len(late))
	m.add("loadgen.late_max_ms", "ms", maxOf(late), len(late))
	m.add("trace.overhead_pct", "%", 100*(ratio(median(asUnit(lr.commits(), time.Millisecond)), median(refCommit))-1), n)
	res.Correct = res.Failed == 0
	return res, layers, nil
}

// httpPassResult is what one pass over the full stack observed.
type httpPassResult struct {
	lr                            *loadResult
	lags                          []time.Duration // per ack: primary ack → follower visible
	problems                      []string
	want                          []string // oracle FDs of the acknowledged history
	primaryBefore, primaryAfter   counters
	followerBefore, followerAfter counters
	advances, seqs                int
	allocBytes, gcPause           uint64
	checkpoints                   []time.Duration
	checkpointBytes               int64
}

// httpPass stands up the stack and drives the workload for d, observing
// the follower. When rec is set it also times the handler, reads the
// counters around the pass, runs the correctness gate, and times three
// checkpoints of the final state.
func httpPass(w workload, o options, in *inputs, d time.Duration, rec *recorder) (*httpPassResult, error) {
	dir, err := os.MkdirTemp(o.dir, w.name+"-")
	if err != nil {
		return nil, err
	}
	var wrap func(http.Handler) http.Handler
	if rec != nil {
		wrap = rec.wrap
	}
	s, _, err := openStack(dir, in, wrap)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	defer s.close()
	c := newClient(s.apiURL, maxConns(w))
	defer c.close()
	out := &httpPassResult{}
	obs := observe(s)
	if rec != nil {
		if out.primaryBefore, err = tenantCounters(s.primary); err == nil {
			out.followerBefore, err = tenantCounters(s.follower)
		}
		if err != nil {
			obs.finish()
			return nil, err
		}
	}
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	out.lr = phase(c, w, in, d, obs)
	goruntime.ReadMemStats(&ms1)
	if err := obs.settle(s); err != nil {
		return nil, err
	}
	if out.lags, err = obs.lags(out.lr.acks); err != nil {
		out.problems = append(out.problems, err.Error())
	}
	if rec == nil {
		return out, nil
	}
	out.advances, out.seqs = obs.advances, obs.seqs
	out.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	out.gcPause = ms1.PauseTotalNs - ms0.PauseTotalNs
	if out.primaryAfter, err = tenantCounters(s.primary); err == nil {
		out.followerAfter, err = tenantCounters(s.follower)
	}
	if err != nil {
		return nil, err
	}
	var gated []string
	if out.want, gated, err = gate(s, c, w, in, out.lr); err != nil {
		return nil, err
	}
	out.problems = append(out.problems, gated...)
	for k := 0; k < 3; k++ {
		start := time.Now()
		if _, err := s.primary.Checkpoint(tenantName); err != nil {
			return nil, err
		}
		out.checkpoints = append(out.checkpoints, time.Since(start))
	}
	fi, err := os.Stat(filepath.Join(dir, "primary", tenantName, "checkpoint.json"))
	if err != nil {
		return nil, err
	}
	out.checkpointBytes = fi.Size()
	return out, nil
}

// runtimePassResult holds the runtime pass's per-batch times by ack
// order, and the direct query times of its reader.
type runtimePassResult struct {
	apply, reject []time.Duration
	// committed is the runtime's own latency of each batch (ApplyStaged
	// through Commit.Wait), recovered from TenantMetrics after the ack.
	committed []time.Duration
	queries   []time.Duration
	problems  []string
}

// runtimePass replays the batches through runtime.Apply on a fresh
// primary runtime (no follower, no HTTP) while a reader queries the
// published snapshot directly at the workload's read rate (at rate 0:
// once after each batch, like the closed-loop writer). Before each
// batch it also times the API handler on the same body addressed to an
// unknown tenant: the handler's own decode, routing, and error encoding.
func runtimePass(w workload, o options, in *inputs, applied []int, want []string) (*runtimePassResult, error) {
	dir, err := os.MkdirTemp(o.dir, w.name+"-runtime-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := engineConfig(dir)
	cfg.ServeReplication = true
	rt, err := runtime.Open(cfg)
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	if err := rt.CreateWithOptions(tenantName, in.columns, in.initial, runtime.CreateOptions{}); err != nil {
		return nil, err
	}
	handler := httpapi.New(rt).Handler()
	out := &runtimePassResult{}
	var lat latencyWindow
	stop := make(chan struct{})
	readerDone := make(chan []time.Duration, 1)
	if w.readRate > 0 {
		go func() { readerDone <- directReads(rt, in.columns, w.readRate, stop) }()
	} else {
		readerDone <- nil
	}
	for _, b := range applied {
		req := httptest.NewRequest(http.MethodPost, "/v1/tenants/absent/batch", bytes.NewReader(in.bodies[b]))
		rr := httptest.NewRecorder()
		start := time.Now()
		handler.ServeHTTP(rr, req)
		out.reject = append(out.reject, time.Since(start))
		if rr.Code != http.StatusNotFound {
			out.problems = append(out.problems, fmt.Sprintf("batch %d to an unknown tenant: status %d, want 404", b, rr.Code))
		}
		start = time.Now()
		_, err := rt.Apply(tenantName, in.batches[b])
		out.apply = append(out.apply, time.Since(start))
		if err == nil {
			err = lat.next(rt)
		}
		if err == nil && w.readRate == 0 {
			var d time.Duration
			if d, err = directRead(rt, in.columns, b); err == nil {
				out.queries = append(out.queries, d)
			}
		}
		if err != nil {
			close(stop)
			<-readerDone
			return nil, fmt.Errorf("runtime pass, batch %d: %w", b, err)
		}
	}
	out.committed = lat.batches
	close(stop)
	out.queries = append(out.queries, <-readerDone...)
	p, err := publishedState(rt)
	if err != nil {
		return nil, err
	}
	if err := sameFDs("runtime pass", p.fds, want); err != nil {
		out.problems = append(out.problems, err.Error())
	}
	return out, nil
}

// latencyWindow recovers each batch's latency from the runtime's metrics:
// TenantMetrics reports the mean over a window of the most recent
// batches, so with one writer the window's sum moves by exactly the
// newest latency minus the one that fell out of the window.
type latencyWindow struct {
	batches []time.Duration
	sum     int64
}

func (l *latencyWindow) next(rt *runtime.Runtime) error {
	m, err := rt.TenantMetrics(tenantName)
	if err != nil {
		return err
	}
	sum := m.LatencyAvgNs * int64(m.LatencyCount)
	d := sum - l.sum
	if evicted := len(l.batches) - m.LatencyCount; evicted >= 0 {
		d += int64(l.batches[evicted])
	}
	l.sum = sum
	l.batches = append(l.batches, time.Duration(d))
	return nil
}

// directReads queries the tenant's published snapshot at rate/s with
// directRead until stop is closed.
func directReads(rt *runtime.Runtime, columns []string, rate float64, stop <-chan struct{}) []time.Duration {
	var out []time.Duration
	start := time.Now()
	for j := 0; ; j++ {
		due := start.Add(time.Duration(float64(j) / rate * float64(time.Second)))
		select {
		case <-stop:
			return out
		case <-time.After(time.Until(due)):
		}
		if d, err := directRead(rt, columns, j); err == nil {
			out = append(out, d)
		}
	}
}

// directRead times runtime.Snapshot plus read j's query, rotating FDs,
// Unique, and Violations like the HTTP reads.
func directRead(rt *runtime.Runtime, columns []string, j int) (time.Duration, error) {
	t := time.Now()
	snap, _, err := rt.Snapshot(tenantName)
	if err != nil {
		return 0, err
	}
	switch j % 3 {
	case 0:
		_ = snap.FDs()
	case 1:
		_, err = snap.Unique(columns[:2])
	case 2:
		_, _, err = snap.Violations(columns[1:2], columns[2], 10)
	}
	return time.Since(t), err
}

// durablePassResult holds the durable pass's per-batch times by ack order.
type durablePassResult struct {
	stage, wait, phases []time.Duration
	problems            []string
}

// durablePass replays the batches into a fresh durable monitor configured
// like a runtime tenant, timing ApplyStaged and Commit.Wait separately.
func durablePass(o options, in *inputs, applied []int, want []string) (*durablePassResult, error) {
	dir, err := os.MkdirTemp(o.dir, "durable-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	mon, err := dynfd.OpenDurable(dir, in.columns, dynfd.WithWorkers(-1),
		dynfd.WithCheckpointEvery(64), dynfd.WithChangeFeed(repl.NewFeed(0, 0)))
	if err != nil {
		return nil, err
	}
	defer mon.Close()
	if err := mon.Bootstrap(in.initial); err != nil {
		return nil, err
	}
	out := &durablePassResult{}
	prev := mon.Stats()
	for _, b := range applied {
		start := time.Now()
		_, commit, err := mon.ApplyStaged(in.batches[b]...)
		if err != nil {
			return nil, fmt.Errorf("durable pass, batch %d: %w", b, err)
		}
		staged := time.Now()
		if err := commit.Wait(); err != nil {
			return nil, fmt.Errorf("durable pass, batch %d: %w", b, err)
		}
		out.stage = append(out.stage, staged.Sub(start))
		out.wait = append(out.wait, time.Since(staged))
		st := mon.Stats()
		out.phases = append(out.phases, phaseTime(st)-phaseTime(prev))
		prev = st
	}
	var got []string
	for _, f := range mon.FDs() {
		got = append(got, mon.FormatFD(f))
	}
	sort.Strings(got)
	if err := sameFDs("durable pass", got, want); err != nil {
		out.problems = append(out.problems, err.Error())
	}
	return out, nil
}

// corePassResult holds the core pass's per-batch times by ack order and
// the engine counters around the pass.
type corePassResult struct {
	apply, build  []time.Duration
	before, after core.Stats
	problems      []string
}

// corePass bootstraps a bare engine with HyFD and replays the batches
// through Engine.ApplyBatch, each followed by the chained
// Engine.BuildResults the durable layer runs after it.
func corePass(in *inputs, applied []int, batch int, want []string) (*corePassResult, error) {
	rel := dataset.New("initial", in.columns)
	for _, row := range in.initial {
		if err := rel.Append(row); err != nil {
			return nil, err
		}
	}
	cfg := core.DefaultConfig()
	cfg.Workers = -1
	eng, err := core.Bootstrap(rel, cfg)
	if err != nil {
		return nil, err
	}
	out := &corePassResult{before: eng.Stats()}
	snap := eng.BuildResults(nil, 0, in.columns, nil, nil)
	for k, b := range applied {
		start := time.Now()
		r, err := eng.ApplyBatch(stream.Batch{Changes: in.changes[b*batch : (b+1)*batch]})
		if err != nil {
			return nil, fmt.Errorf("core pass, batch %d: %w", b, err)
		}
		mid := time.Now()
		snap = eng.BuildResults(snap, uint64(k+1), in.columns, r.Added, r.Removed)
		out.apply = append(out.apply, mid.Sub(start))
		out.build = append(out.build, time.Since(mid))
	}
	out.after = eng.Stats()
	if err := sameFDs("core pass", render(eng.FDs(), in.columns), want); err != nil {
		out.problems = append(out.problems, err.Error())
	}
	return out, nil
}
