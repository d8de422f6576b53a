package repl_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynfd/internal/core"
	"dynfd/internal/durable"
	"dynfd/internal/faultio"
	"dynfd/internal/repl"
	"dynfd/internal/stream"
)

var chaosCols = []string{"a", "b", "c"}

// engState is the query surface the chaos property compares between every
// surviving node and the no-crash oracle.
type engState struct {
	fds, nonFDs string
	records     int
}

func captureEng(e *core.Engine) engState {
	return engState{
		fds:     fmt.Sprint(e.FDs()),
		nonFDs:  fmt.Sprint(e.NonFDs()),
		records: e.NumRecords(),
	}
}

// genEngineWorkload builds a deterministic change stream (no bootstrap, so
// sequence i always means "the first i batches") plus the direct-replay
// oracle states.
func genEngineWorkload(t *testing.T, cfg core.Config, numBatches int) ([]stream.Batch, []engState) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	domain := []string{"u", "v", "w"}
	randRow := func() []string {
		return []string{domain[rng.Intn(3)], domain[rng.Intn(3)], domain[rng.Intn(3)]}
	}
	oracle := core.NewEmpty(len(chaosCols), cfg)
	var live []int64
	var batches []stream.Batch
	states := []engState{captureEng(oracle)}
	for b := 0; b < numBatches; b++ {
		var batch stream.Batch
		perm := rng.Perm(len(live))
		next := 0
		dead := map[int64]bool{}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			switch op := rng.Intn(4); {
			case op == 0 && next < len(perm):
				id := live[perm[next]]
				next++
				dead[id] = true
				batch.Changes = append(batch.Changes, stream.Change{Kind: stream.Delete, ID: id})
			case op == 1 && next < len(perm):
				id := live[perm[next]]
				next++
				dead[id] = true
				batch.Changes = append(batch.Changes, stream.Change{Kind: stream.Update, ID: id, Values: randRow()})
			default:
				batch.Changes = append(batch.Changes, stream.Change{Kind: stream.Insert, Values: randRow()})
			}
		}
		res, err := oracle.ApplyBatch(batch)
		if err != nil {
			t.Fatalf("oracle batch %d: %v", b, err)
		}
		var survivors []int64
		for _, id := range live {
			if !dead[id] {
				survivors = append(survivors, id)
			}
		}
		live = append(survivors, res.InsertedIDs...)
		batches = append(batches, batch)
		states = append(states, captureEng(oracle))
	}
	return batches, states
}

// engReplica adapts a durable.Engine to the repl.Replica surface (the
// engine's install method carries a shorter name than the interface).
type engReplica struct{ eng *durable.Engine }

func (r engReplica) Seq() uint64   { return r.eng.Seq() }
func (r engReplica) Epoch() uint64 { return r.eng.Epoch() }
func (r engReplica) ApplyReplicated(seq uint64, payload []byte) error {
	return r.eng.ApplyReplicated(seq, payload)
}
func (r engReplica) InstallReplicaCheckpoint(blob []byte) error {
	return r.eng.InstallCheckpoint(blob)
}

// chaosPrimary is a repl.Source over one fault-injected engine. The engine
// and feed are swapped in place on every simulated crash-restart, so the
// HTTP server (and therefore the followers' URL) stays stable across
// primary incarnations — exactly like a process restarting behind the same
// address.
type chaosPrimary struct {
	mu      sync.Mutex
	opts    durable.Options
	feedCap int
	st      *faultio.MemStorage
	eng     *durable.Engine
	feed    *repl.Feed
	wit     *witnessLog // when set, open and apply record the witnesses
}

func (p *chaosPrimary) ReplTenants() []repl.TenantStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	return []repl.TenantStatus{{Name: "t", Seq: p.feed.DurableSeq()}}
}

func (p *chaosPrimary) ReplFeed(name string) (*repl.Feed, error) {
	if name != "t" {
		return nil, fmt.Errorf("no such tenant %q", name)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.feed, nil
}

func (p *chaosPrimary) ReplEpoch(name string) (uint64, uint64, error) {
	if name != "t" {
		return 0, 0, fmt.Errorf("no such tenant %q", name)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.eng.Epoch(), p.eng.EpochStart(), nil
}

func (p *chaosPrimary) ReplObserve(name string, epoch uint64) {}

func (p *chaosPrimary) ReplCheckpoint(name string) ([]byte, uint64, error) {
	if name != "t" {
		return nil, 0, fmt.Errorf("no such tenant %q", name)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	minSeq := p.feed.Floor()
	if es := p.eng.EpochStart(); es > minSeq {
		minSeq = es // a rejoiner from a lost epoch needs a post-promotion checkpoint
	}
	blob, seq, err := p.eng.CheckpointBlob(minSeq)
	return blob, seq, err
}

// open (re)opens the engine over the current storage with a fresh feed,
// closing the previous feed so in-flight streams end and followers
// renegotiate against the recovered history.
func (p *chaosPrimary) open() error {
	feed := repl.NewFeed(0, p.feedCap)
	opts := p.opts
	opts.Feed = feed
	eng, err := durable.Open(p.st, opts)
	if err != nil {
		return err
	}
	p.mu.Lock()
	if p.feed != nil {
		p.feed.Close()
	}
	p.eng, p.feed = eng, feed
	if p.wit != nil {
		p.wit.record(eng.Seq(), eng.Core().Snapshot())
	}
	p.mu.Unlock()
	return nil
}

// apply commits one batch on the current incarnation.
func (p *chaosPrimary) apply(b stream.Batch) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, err := p.eng.Apply(b); err != nil {
		return err
	}
	if p.wit != nil {
		p.wit.record(p.eng.Seq(), p.eng.Core().Snapshot())
	}
	return nil
}

// TestChaosClusterEquivalence is the end-to-end crash battery: a primary
// and three followers, each over fault-injected storage with its own crash
// budget, are killed mid-stream and restarted (keeping 0, 1, or all
// unsynced WAL bytes — the torn-tail spectrum). Every batch is driven to
// acknowledgment, crashing and recovering the primary as needed; once all
// followers report the final sequence, the full query surface of every
// node — FDs, non-FDs, record count — must be bit-identical to the
// no-crash direct-replay oracle, and every engine's cross-structure
// invariants must hold. Every follower runs the shadow check
// (shadow_test.go) on every frame. Run under -race in CI, so the follower
// replay path, the streaming handlers, and the crash-restart swaps are
// also exercised for data races.
func TestChaosClusterEquivalence(t *testing.T) {
	const numBatches = 24
	cfg := core.DefaultConfig()
	batches, states := genEngineWorkload(t, cfg, numBatches)
	baseOpts := durable.Options{Columns: chaosCols, Config: cfg, CheckpointEvery: 3}

	// Fault-free probe: how many storage units the primary's full run
	// costs, the yardstick for placing crash points.
	probe := faultio.NewMem()
	probeOpts := baseOpts
	probeOpts.Feed = repl.NewFeed(0, 6)
	peng, err := durable.Open(probe, probeOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if _, err := peng.Apply(b); err != nil {
			t.Fatalf("probe batch %d: %v", i, err)
		}
	}
	total := probe.Units()
	if total == 0 {
		t.Fatal("probe consumed no storage units")
	}

	scenarios := []struct {
		name         string
		primaryFrac  float64 // fraction of total units until the primary dies (>1: never)
		followerFrac float64 // base fraction for follower crash points
		keep         int     // unsynced WAL bytes surviving each crash
	}{
		{"early-kills-drop-unsynced", 0.25, 0.35, 0},
		{"mid-kills-keep-one", 0.5, 0.6, 1},
		{"late-kills-keep-all", 0.8, 0.9, 1 << 20},
		{"follower-only-kills", 2.0, 0.5, 0},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			p := &chaosPrimary{opts: baseOpts, feedCap: 6, wit: newWitnessLog()}
			p.st = faultio.NewMemCrashAt(int64(float64(total) * sc.primaryFrac))
			for p.open() != nil {
				p.st = p.st.Reopen(sc.keep) // crashed during open: restart
			}
			srv := repl.NewServer(p)
			srv.Heartbeat = 10 * time.Millisecond
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			client := repl.NewClient(ts.URL, nil)

			// Followers: each restart-on-crash loop publishes its current
			// engine so the test can watch convergence through the published
			// snapshots (the engine's lock-free read surface).
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			type follower struct {
				engp atomic.Pointer[durable.Engine]
				done chan struct{}
			}
			fols := make([]*follower, 3)
			counts := &shadowCounts{}
			rows := recordHistory(batches)
			for i := range fols {
				fol := &follower{done: make(chan struct{})}
				fols[i] = fol
				st := faultio.NewMemCrashAt(int64(float64(total) * (sc.followerFrac + 0.15*float64(i))))
				go func() {
					defer close(fol.done)
					for ctx.Err() == nil {
						eng, err := durable.Open(st, baseOpts)
						if err != nil {
							st = st.Reopen(sc.keep)
							continue
						}
						fol.engp.Store(eng)
						rep := &shadowReplica{t: t, rep: engReplica{eng}, state: engineState(eng), rows: rows, primary: p.wit, counts: counts}
						r := repl.NewFollower(client, "t", rep, repl.FollowerOptions{
							MinBackoff: time.Millisecond,
							MaxBackoff: 20 * time.Millisecond,
						})
						if err := r.Run(ctx); err != nil && ctx.Err() == nil {
							// Replica failure — this follower's storage crashed
							// mid-apply. Kill the incarnation and recover.
							st = st.Reopen(sc.keep)
						}
					}
				}()
			}

			// Writer: drive every batch to acknowledgment, restarting the
			// primary whenever its storage crashes. The recovered sequence
			// dictates where to resume — acked batches must never be lost,
			// unacked ones are retried.
			acked := 0
			recoveries := 0
			for acked < len(batches) {
				err := p.apply(batches[acked])
				if err == nil {
					acked++
					// Pace the writer so followers tail frames (and their
					// cover deltas) instead of only installing checkpoints.
					time.Sleep(time.Millisecond)
					continue
				}
				if recoveries++; recoveries > 5 {
					t.Fatalf("batch %d kept failing after %d recoveries: %v", acked, recoveries, err)
				}
				p.st = p.st.Reopen(sc.keep)
				for p.open() != nil {
					p.st = p.st.Reopen(sc.keep)
				}
				rec := int(p.eng.Seq())
				if rec < acked {
					t.Fatalf("recovery lost acked batches: recovered seq %d < acked %d", rec, acked)
				}
				acked = rec
			}

			// Convergence: every follower's published snapshot reaches the
			// final sequence.
			deadline := time.Now().Add(30 * time.Second)
			for i, fol := range fols {
				for {
					eng := fol.engp.Load()
					if eng != nil && eng.Snapshot().Seq() == numBatches {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("follower %d never converged", i)
					}
					time.Sleep(time.Millisecond)
				}
			}
			cancel()
			for _, fol := range fols {
				<-fol.done
			}

			// Oracle equivalence across the whole cluster.
			want := states[numBatches]
			if got := captureEng(p.eng.Core()); got != want {
				t.Fatalf("primary diverged:\n got %+v\nwant %+v", got, want)
			}
			if err := p.eng.Core().CheckInvariants(); err != nil {
				t.Fatalf("primary invariants: %v", err)
			}
			for i, fol := range fols {
				eng := fol.engp.Load()
				if got := captureEng(eng.Core()); got != want {
					t.Fatalf("follower %d diverged:\n got %+v\nwant %+v", i, got, want)
				}
				if err := eng.Core().CheckInvariants(); err != nil {
					t.Fatalf("follower %d invariants: %v", i, err)
				}
			}
			checkShadow(t, counts, false) // a follower may catch up by installs only
		})
	}
}
