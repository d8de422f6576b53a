package runtime

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dynfd"
	"dynfd/internal/repl"
)

// This file is the runtime's side of WAL-shipping replication (DESIGN.md
// §15). A primary runtime (Config.ServeReplication) attaches a repl.Feed
// to every tenant engine and implements repl.Source so a repl.Server can
// stream frames and checkpoints. A follower runtime
// (Config.ReplicateFrom) runs a manager goroutine that mirrors the
// primary's tenant set and drives one repl.Follower per tenant, replaying
// frames into local durable engines whose published snapshots serve every
// read endpoint.

// defaultReplPoll is the follower's tenant-listing poll interval when
// Config.ReplPoll is zero.
const defaultReplPoll = 2 * time.Second

// newFeed returns the change feed for a new or recovered tenant engine,
// or nil when the runtime is not a replication primary.
func (rt *Runtime) newFeed() *repl.Feed {
	if !rt.cfg.ServeReplication {
		return nil
	}
	return repl.NewFeed(0, repl.DefaultFeedCapacity)
}

// writable gates the mutating endpoints by failover role: a follower
// rejects every write as read-only, a fenced ex-primary rejects with the
// winning epoch so the client can chase the new primary, and a primary
// accepts. The role is dynamic — Promote opens the gate, a fence closes it.
func (rt *Runtime) writable() error {
	switch rt.Role() {
	case RoleFollower:
		return ErrReadOnly
	case RoleFenced:
		f := rt.fence.Load()
		return &FencedError{Epoch: f.Epoch, Primary: f.Primary, Advertise: f.Advertise}
	}
	return nil
}

// IsFollower reports whether the runtime currently mirrors a primary
// (false again after a Promote).
func (rt *Runtime) IsFollower() bool { return rt.Role() == RoleFollower }

// --- primary side: repl.Source over the tenant table ---

// ReplTenants lists the replicable tenants with their durable sequences.
// Quarantined tenants stay listed (their feed simply stops advancing) so
// followers keep serving their last replicated state instead of dropping
// it; tenants still being created or already dropped are omitted.
func (rt *Runtime) ReplTenants() []repl.TenantStatus {
	rt.mu.Lock()
	slots := make([]*tenant, 0, len(rt.tenants))
	for _, t := range rt.tenants {
		slots = append(slots, t)
	}
	rt.mu.Unlock()
	out := make([]repl.TenantStatus, 0, len(slots))
	for _, t := range slots {
		select {
		case <-t.ready:
		default:
			continue // mid-create; the next listing will see it
		}
		if t.initErr != nil || t.dropped.Load() || t.feed == nil {
			continue
		}
		ts := repl.TenantStatus{Name: t.name, Seq: t.feed.DurableSeq()}
		if mon := t.monRead.Load(); mon != nil {
			ts.Epoch = mon.Epoch()
		}
		out = append(out, ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// replFenced returns the typed wire error when this node is fenced: a
// fenced ex-primary must not feed followers, and the error carries the
// winner's replication base so they re-point automatically.
func (rt *Runtime) replFenced() *repl.FencedError {
	f := rt.Fence()
	if f == nil {
		return nil
	}
	return &repl.FencedError{Epoch: f.Epoch, Primary: f.Primary}
}

// ReplFeed resolves a tenant's frame feed.
func (rt *Runtime) ReplFeed(name string) (*repl.Feed, error) {
	if fe := rt.replFenced(); fe != nil {
		return nil, fe
	}
	t, err := rt.get(name)
	if err != nil {
		return nil, err
	}
	if t.dropped.Load() {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTenant, name)
	}
	if t.feed == nil {
		return nil, fmt.Errorf("runtime: tenant %q has no replication feed (primary not serving replication)", name)
	}
	return t.feed, nil
}

// ReplCheckpoint returns a checkpoint blob a follower can install and then
// tail from: the blob's sequence is at least the feed's floor, forcing a
// fresh checkpoint when the stored one has fallen behind the frame ring —
// and at least the tenant's epoch start, because a checkpoint from before
// the promotion can neither catch up a divergent rejoiner (its guard would
// see nothing ahead) nor carry the fencing epoch it must adopt.
func (rt *Runtime) ReplCheckpoint(name string) ([]byte, uint64, error) {
	if fe := rt.replFenced(); fe != nil {
		return nil, 0, fe
	}
	t, err := rt.get(name)
	if err != nil {
		return nil, 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, 0, fmt.Errorf("%w: %q", ErrNoSuchTenant, name)
	}
	if q := t.quarErr(); q != nil || t.mon == nil {
		return nil, 0, &QuarantineError{Tenant: name, Err: q}
	}
	var minSeq uint64
	if t.feed != nil {
		minSeq = t.feed.Floor()
	}
	if es := t.mon.EpochStart(); es > minSeq {
		minSeq = es
	}
	return t.mon.CheckpointBlob(minSeq)
}

// --- follower side: the replication manager ---

// replState is the follower-mode machinery: one manager goroutine
// mirroring the primary's tenant set, plus one repl.Follower goroutine per
// tenant, all stopped together through ctx.
type replState struct {
	client    *repl.Client
	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	advertise atomic.Value // string: the primary's public API base URL
	poll      time.Duration
}

// followerHandle pairs a tenant's running follower with its stop function.
type followerHandle struct {
	fol    *repl.Follower
	cancel context.CancelFunc
}

// ReplStatus is one tenant's replication position, the source of the
// bounded-staleness fields on follower read responses.
type ReplStatus struct {
	// PrimarySeq is the primary's durable sequence as last observed on the
	// stream (a lower bound while disconnected).
	PrimarySeq uint64
	// Connected reports whether the tenant's tail stream is open.
	Connected bool
	// Advertise is the primary's public API base URL (empty until the
	// first successful tenant listing, or if the primary does not
	// advertise one).
	Advertise string
	// LastFrameAt is when the last frame (including heartbeats) arrived —
	// the liveness signal of the link. Zero before the first frame.
	LastFrameAt time.Time
}

// ReplStatus returns the named tenant's replication position. The bool is
// false when the runtime is not currently a follower (a promoted node
// stops reporting follower state).
func (rt *Runtime) ReplStatus(name string) (ReplStatus, bool) {
	if rt.repl == nil || !rt.IsFollower() {
		return ReplStatus{}, false
	}
	st := ReplStatus{}
	if adv, ok := rt.repl.advertise.Load().(string); ok {
		st.Advertise = adv
	}
	rt.mu.Lock()
	t, ok := rt.tenants[name]
	rt.mu.Unlock()
	if ok {
		if h := t.folH.Load(); h != nil {
			st.PrimarySeq = h.fol.PrimarySeq()
			st.Connected = h.fol.Connected()
			st.LastFrameAt = h.fol.LastFrameAt()
		}
	}
	return st, true
}

// startFollowing launches the replication manager when the runtime is
// configured as a follower. Called once at the end of Open.
func (rt *Runtime) startFollowing() {
	if rt.cfg.ReplicateFrom == "" {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt.repl = &replState{
		client: repl.NewClient(rt.cfg.ReplicateFrom, nil),
		ctx:    ctx,
		cancel: cancel,
		poll:   rt.cfg.ReplPoll,
	}
	if rt.repl.poll <= 0 {
		rt.repl.poll = defaultReplPoll
	}
	// Tenants recovered from disk resume tailing where their local WAL
	// position left off — no full replay, no checkpoint refetch unless the
	// primary's ring moved past them.
	rt.repl.wg.Add(1)
	go rt.replManager()
}

// stopFollowing stops the manager and every follower, waiting for their
// in-flight applies to finish. Safe to call on a non-follower.
func (rt *Runtime) stopFollowing() {
	if rt.repl == nil {
		return
	}
	rt.repl.cancel()
	rt.repl.wg.Wait()
}

// replManager mirrors the primary's tenant set until the runtime closes:
// every poll interval it re-lists the primary's tenants, creates local
// replicas for new ones (seeded from a primary checkpoint), starts a
// follower for any replica without one, and drops replicas whose primary
// tenant vanished.
func (rt *Runtime) replManager() {
	defer rt.repl.wg.Done()
	ticker := time.NewTicker(rt.repl.poll)
	defer ticker.Stop()
	for {
		rt.syncReplicas()
		select {
		case <-rt.repl.ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// syncReplicas runs one reconciliation round against the primary's tenant
// listing. Listing failures are transient (the primary may be down or
// restarting): existing followers keep their streams and retry on their
// own, so a round simply ends.
func (rt *Runtime) syncReplicas() {
	ctx, cancel := context.WithTimeout(rt.repl.ctx, rt.repl.poll*4+time.Second)
	defer cancel()
	listing, advertise, err := rt.repl.client.Tenants(ctx)
	if err != nil {
		if rt.repl.ctx.Err() == nil {
			rt.logger.Printf("runtime: follower: listing primary tenants: %v", err)
		}
		return
	}
	rt.repl.advertise.Store(advertise)
	want := make(map[string]bool, len(listing))
	for _, ts := range listing {
		if ValidateTenantName(ts.Name) != nil {
			rt.logger.Printf("runtime: follower: ignoring invalid primary tenant name %q", ts.Name)
			continue
		}
		want[ts.Name] = true
		rt.ensureReplica(ts.Name)
	}
	rt.mu.Lock()
	var stale []string
	for name, t := range rt.tenants {
		select {
		case <-t.ready:
		default:
			continue
		}
		if !want[name] && t.initErr == nil && !t.dropped.Load() {
			stale = append(stale, name)
		}
	}
	rt.mu.Unlock()
	for _, name := range stale {
		if err := rt.drop(name); err != nil && rt.repl.ctx.Err() == nil {
			rt.logger.Printf("runtime: follower: dropping vanished tenant %q: %v", name, err)
		} else {
			rt.logger.Printf("runtime: follower: dropped tenant %q (gone on primary)", name)
		}
	}
}

// ensureReplica makes sure one primary tenant has a local replica with a
// running follower, creating and seeding it from a primary checkpoint if
// it does not exist yet.
func (rt *Runtime) ensureReplica(name string) {
	rt.mu.Lock()
	t, ok := rt.tenants[name]
	rt.mu.Unlock()
	if !ok {
		var err error
		if t, err = rt.createReplica(name); err != nil {
			if rt.repl.ctx.Err() == nil && !errors.Is(err, ErrTenantExists) {
				rt.logger.Printf("runtime: follower: creating replica %q: %v", name, err)
			}
			return
		}
		rt.logger.Printf("runtime: follower: replica %q seeded from primary checkpoint", name)
	}
	select {
	case <-t.ready:
	default:
		return
	}
	if t.initErr != nil || t.dropped.Load() || t.quarErr() != nil || t.folH.Load() != nil {
		return
	}
	rt.startFollower(t)
}

// createReplica creates a local tenant seeded from the primary's current
// checkpoint — the catch-up path for a follower that has never seen the
// tenant: install the checkpoint, then tail from its sequence, never
// replaying the primary's full history.
func (rt *Runtime) createReplica(name string) (*tenant, error) {
	t := &tenant{name: name, dir: filepath.Join(rt.cfg.DataRoot, name), ready: make(chan struct{})}
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil, ErrClosed
	}
	if _, ok := rt.tenants[name]; ok {
		rt.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrTenantExists, name)
	}
	if max := rt.cfg.Limits.MaxTenants; max > 0 && len(rt.tenants) >= max {
		rt.mu.Unlock()
		return nil, fmt.Errorf("%w (limit %d)", ErrTooManyTenants, max)
	}
	rt.tenants[name] = t
	rt.mu.Unlock()

	ctx, cancel := context.WithTimeout(rt.repl.ctx, time.Minute)
	blob, _, _, err := rt.repl.client.Checkpoint(ctx, name)
	cancel()
	// The replica gets its own feed (when this node serves replication) so
	// a promoted follower starts shipping frames without reopening engines:
	// warm feeds are what make promotion instantaneous.
	t.feed = rt.newFeed()
	var mon *dynfd.DurableMonitor
	if err == nil {
		mon, err = dynfd.OpenReplica(t.dir, blob, rt.engineOptions(t.feed)...)
	}
	if err != nil {
		os.RemoveAll(t.dir)
		t.initErr = err
		close(t.ready)
		rt.mu.Lock()
		if rt.tenants[name] == t {
			delete(rt.tenants, name)
		}
		rt.mu.Unlock()
		return nil, err
	}
	t.mon = mon
	t.monRead.Store(mon)
	close(t.ready)
	return t, nil
}

// startFollower spawns the tenant's replay goroutine. A fatal replica
// error (the engine rejected an apply or install) quarantines the tenant:
// reads keep serving the last replayed snapshot, and the follower stops.
func (rt *Runtime) startFollower(t *tenant) {
	ctx, cancel := context.WithCancel(rt.repl.ctx)
	fol := repl.NewFollower(rt.repl.client, t.name, &tenantReplica{t: t}, repl.FollowerOptions{
		Logf: rt.logger.Printf,
	})
	t.folH.Store(&followerHandle{fol: fol, cancel: cancel})
	rt.repl.wg.Add(1)
	go func() {
		defer rt.repl.wg.Done()
		err := fol.Run(ctx)
		if err != nil && ctx.Err() == nil && !t.dropped.Load() {
			t.setQuarantine(err)
			rt.logger.Printf("runtime: follower: tenant %q quarantined: %v", t.name, err)
		}
	}()
}

// tenantReplica adapts a runtime tenant to repl.Replica: every mutation
// runs under the tenant mutation lock, exactly like a primary-side write.
type tenantReplica struct {
	t *tenant
}

func (r *tenantReplica) Seq() uint64 {
	if mon := r.t.monRead.Load(); mon != nil {
		return mon.Seq()
	}
	return 0
}

func (r *tenantReplica) Epoch() uint64 {
	if mon := r.t.monRead.Load(); mon != nil {
		return mon.Epoch()
	}
	return 0
}

func (r *tenantReplica) ApplyReplicated(seq uint64, payload []byte) error {
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	if r.t.closed {
		return fmt.Errorf("%w: %q", ErrNoSuchTenant, r.t.name)
	}
	if q := r.t.quarErr(); q != nil || r.t.mon == nil {
		return &QuarantineError{Tenant: r.t.name, Err: q}
	}
	return r.t.mon.ApplyReplicated(seq, payload)
}

func (r *tenantReplica) InstallReplicaCheckpoint(blob []byte) error {
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	if r.t.closed {
		return fmt.Errorf("%w: %q", ErrNoSuchTenant, r.t.name)
	}
	if q := r.t.quarErr(); q != nil || r.t.mon == nil {
		return &QuarantineError{Tenant: r.t.name, Err: q}
	}
	return r.t.mon.InstallReplicaCheckpoint(blob)
}
