// Package runtime owns the lifecycle of a multi-tenant DynFD constraint
// service: a data root under which every named tenant keeps its own
// crash-safe engine (dynfd.OpenDurable at <data-root>/<tenant>/), created,
// dropped, and queried independently while batches to different tenants
// proceed in parallel.
//
// The split follows the long-running-daemon architecture OPA popularized:
// the runtime owns configuration, tenant lifecycle, admission control, and
// graceful shutdown; the HTTP layer (internal/httpapi) only routes. Nothing
// in this package knows about transports.
//
// Failure containment: when a tenant's engine poisons itself (WAL append
// failure, diverged worker), the tenant is quarantined — further writes
// fail fast with a *QuarantineError naming the tenant, reads stay
// available, and every other tenant is untouched. A quarantined tenant
// never takes the process down; it is cleared by dropping the tenant or
// restarting the service (recovery replays the durable state).
package runtime

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dynfd"
	"dynfd/internal/repl"
)

// Sentinel errors of the tenant lifecycle and admission control. The HTTP
// layer maps these onto status codes.
var (
	// ErrClosed reports an operation on a runtime that has shut down.
	ErrClosed = errors.New("runtime: closed")
	// ErrTenantExists reports a create of a name that is already live
	// (or still being dropped).
	ErrTenantExists = errors.New("runtime: tenant already exists")
	// ErrNoSuchTenant reports an operation on an unknown tenant.
	ErrNoSuchTenant = errors.New("runtime: no such tenant")
	// ErrTenantBusy reports that a tenant's in-flight batch cap is
	// exhausted; the client should retry after its batches drain.
	ErrTenantBusy = errors.New("runtime: tenant has too many batches in flight")
	// ErrOverloaded reports that the global in-flight batch cap is
	// exhausted.
	ErrOverloaded = errors.New("runtime: too many batches in flight")
	// ErrTooManyTenants reports that the tenant-count cap is exhausted.
	ErrTooManyTenants = errors.New("runtime: tenant limit reached")
	// ErrReadOnly reports a write on a follower runtime: followers mirror
	// their primary and only serve reads.
	ErrReadOnly = errors.New("runtime: follower is read-only; write to the primary")
)

// QuarantineError reports a write rejected because the named tenant's
// engine is poisoned. The tenant name always rides along so a multi-tenant
// log line or error body identifies the failed engine.
type QuarantineError struct {
	Tenant string
	Err    error
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("runtime: tenant %q quarantined: %v", e.Tenant, e.Err)
}

func (e *QuarantineError) Unwrap() error { return e.Err }

// tenantNameRE is the documented tenant-name grammar: 1-64 chars, lower
// case letters, digits, and ._- with a leading letter or digit — every
// valid name is a safe single path element.
var tenantNameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]{0,63}$`)

// ValidateTenantName rejects names that do not match the documented
// grammar. Matching names never contain a path separator or start with a
// dot, so they cannot escape the data root.
func ValidateTenantName(name string) error {
	if !tenantNameRE.MatchString(name) {
		return fmt.Errorf("runtime: invalid tenant name %q (want 1-64 of [a-z0-9._-], starting with a letter or digit)", name)
	}
	return nil
}

// Limits bounds resource use. The first three fields are per-connection
// limits of the line protocol (internal/server); the remaining fields are
// admission-control caps consumed by the runtime and the HTTP layer
// (internal/httpapi). Every counter backing these caps is scoped to one
// connection or one tenant — never shared across tenants — so one noisy
// client cannot exhaust another tenant's budget.
type Limits struct {
	// IdleTimeout closes a connection when a single read or write stalls
	// longer than this; 0 disables the deadline.
	IdleTimeout time.Duration
	// MaxLineBytes caps one request line; an overlong line is answered
	// with an error and the connection is closed (its framing is lost).
	MaxLineBytes int
	// MaxPending caps the staged-but-uncommitted changes per connection
	// on the line protocol, and the changes of one HTTP batch request;
	// staging beyond it is rejected (the client should commit first).
	MaxPending int

	// MaxBodyBytes caps one HTTP request body; oversized requests are
	// answered with 413. 0 disables the cap.
	MaxBodyBytes int64
	// MaxTenantInFlight caps the batches admitted but not yet completed
	// per tenant; excess applies are rejected with a retryable error.
	// 0 disables the cap.
	MaxTenantInFlight int
	// MaxInFlight caps the batches admitted but not yet completed across
	// all tenants of a runtime. 0 disables the cap.
	MaxInFlight int
	// MaxTenants caps the number of live tenants of a runtime. 0 disables
	// the cap.
	MaxTenants int
}

// DefaultLimits are applied when Config.Limits is the zero value.
func DefaultLimits() Limits {
	return Limits{
		IdleTimeout:       5 * time.Minute,
		MaxLineBytes:      1 << 20,
		MaxPending:        1 << 16,
		MaxBodyBytes:      1 << 20,
		MaxTenantInFlight: 64,
		MaxInFlight:       1024,
		MaxTenants:        1024,
	}
}

// Config parameterizes a runtime.
type Config struct {
	// DataRoot is the directory holding one subdirectory per tenant.
	// Required; created if absent.
	DataRoot string
	// Workers is kept so that existing callers still compile.
	//
	// Deprecated: ignored. Every engine fans its Pli maintenance out
	// across GOMAXPROCS goroutines (dynfd.WithWorkers).
	Workers int
	// CheckpointEvery is the per-engine checkpoint interval in batches
	// (dynfd.WithCheckpointEvery); 0 keeps the engine default.
	CheckpointEvery int
	// Limits is the admission-control configuration; the zero value means
	// DefaultLimits.
	Limits Limits
	// Logger receives lifecycle and quarantine events; nil discards them.
	Logger *log.Logger
	// ServeReplication attaches a WAL-shipping change feed to every tenant
	// engine so the runtime can act as a replication primary (the daemon
	// sets it when -repl-addr is given). DESIGN.md §15.
	ServeReplication bool
	// ReplicateFrom, when non-empty, runs the runtime as a read-only
	// follower of the primary at this replication base URL: tenants mirror
	// the primary's, every write endpoint fails with ErrReadOnly, and
	// reads are served from replayed snapshots with a bounded-staleness
	// contract.
	ReplicateFrom string
	// ReplPoll is how often a follower re-lists the primary's tenants to
	// pick up creates and drops; 0 means 2s.
	ReplPoll time.Duration
}

// Runtime manages named tenants, each backed by its own durable engine.
// All methods are safe for concurrent use; batches to different tenants
// run in parallel, batches to one tenant serialize.
type Runtime struct {
	cfg    Config
	logger *log.Logger

	// repl holds the follower-mode replication state (nil on a primary or
	// standalone runtime); see repl.go.
	repl *replState

	// Failover role machine (failover.go): role is the node's current
	// Role, fence the reason when fenced, roleMu serializes transitions
	// (Promote, Demote, ReplObserve-triggered fencing).
	role   atomic.Int32
	fence  atomic.Pointer[Fence]
	roleMu sync.Mutex

	// lock holds the data root's exclusive lock from Open to Close
	// (lockRoot).
	lock *os.File

	mu       sync.Mutex
	tenants  map[string]*tenant
	inFlight int // batches admitted across all tenants
	closed   bool
}

// tenant is one named engine plus its lifecycle and metric state.
type tenant struct {
	name string
	dir  string

	// ready is closed once creation (or recovery) finished; initErr is set
	// before the close when it failed, and the slot is removed from the
	// map — waiters treat it as never having existed.
	ready   chan struct{}
	initErr error

	// mu serializes every engine mutation: Bootstrap, batch staging,
	// Checkpoint, Close. Drop sets closed under mu, so an engine is never
	// mutated after its Close. Reads do NOT take mu — they go through
	// monRead and the published snapshot, so a long batch never stalls
	// them.
	mu     sync.Mutex
	mon    *dynfd.DurableMonitor
	closed bool

	// Lock-free read-path state. monRead mirrors mon for readers (nil
	// while the tenant has no usable engine); dropped mirrors closed;
	// quarantine holds the first quarantine reason. All three are written
	// at lifecycle points and read by snapshot-serving endpoints without
	// any tenant lock.
	monRead    atomic.Pointer[dynfd.DurableMonitor]
	dropped    atomic.Bool
	quarantine atomic.Pointer[error]

	// feed is the tenant's replication frame ring (primaries only; nil
	// otherwise). folH is the tenant's running follower (followers only) —
	// written by the replication manager goroutine, read by the status
	// endpoints.
	feed *repl.Feed
	folH atomic.Pointer[followerHandle]

	// statMu guards the admission counter and latency ring; it is never
	// held while the engine works, so metrics and admission stay
	// responsive during a slow batch.
	statMu   sync.Mutex
	inFlight int
	batches  uint64
	lat      []time.Duration // the last latencyWindow batch latencies, a ring
	latPos   int
}

// latencyWindow is how many recent per-batch latencies each tenant keeps
// for its percentile metrics.
const latencyWindow = 512

// quarErr returns the tenant's quarantine reason, or nil while healthy.
// Safe from any goroutine.
func (t *tenant) quarErr() error {
	if p := t.quarantine.Load(); p != nil {
		return *p
	}
	return nil
}

// setQuarantine records the first quarantine reason; later causes keep
// the original. Safe from any goroutine.
func (t *tenant) setQuarantine(err error) {
	if err == nil {
		return
	}
	t.quarantine.CompareAndSwap(nil, &err)
}

// lockName is the lock file in a data root; see lockRoot.
const lockName = "LOCK"

// lockRoot takes an exclusive, non-blocking flock on the data root's lock
// file. One runtime serves a root at a time: a second one (in this process
// or another dynfdd) would append to the same WALs and rewrite the same
// checkpoints. The lock lives as long as the returned file stays open, and
// the kernel drops it when the process dies, so a crash leaves nothing to
// clean up.
func lockRoot(root string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(root, lockName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("runtime: data root %s is in use by another runtime", root)
		}
		return nil, fmt.Errorf("runtime: locking data root %s: %w", root, err)
	}
	return f, nil
}

// Open creates a runtime over cfg.DataRoot and recovers every tenant
// directory found there. A tenant whose recovery fails is quarantined —
// listed, read- and write-rejecting with its recovery error — instead of
// failing the whole service. The runtime holds the root's lock until
// Close; Open fails while another runtime holds it.
func Open(cfg Config) (*Runtime, error) {
	if cfg.DataRoot == "" {
		return nil, fmt.Errorf("runtime: Config.DataRoot is required")
	}
	if (cfg.Limits == Limits{}) {
		cfg.Limits = DefaultLimits()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	if err := os.MkdirAll(cfg.DataRoot, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockRoot(cfg.DataRoot)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{cfg: cfg, logger: logger, lock: lock, tenants: make(map[string]*tenant)}
	if cfg.ReplicateFrom != "" {
		rt.role.Store(int32(RoleFollower))
	}
	entries, err := os.ReadDir(cfg.DataRoot)
	if err != nil {
		lock.Close()
		return nil, err
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		name := ent.Name()
		if ValidateTenantName(name) != nil {
			rt.logger.Printf("runtime: ignoring non-tenant directory %q", name)
			continue
		}
		t := &tenant{name: name, dir: filepath.Join(cfg.DataRoot, name), ready: make(chan struct{})}
		t.feed = rt.newFeed()
		mon, err := dynfd.OpenDurable(t.dir, nil, rt.engineOptions(t.feed)...)
		if err != nil {
			// Quarantine, don't die: the other tenants must keep serving.
			t.setQuarantine(fmt.Errorf("recovering tenant %q: %w", name, err))
			rt.logger.Printf("runtime: tenant %q quarantined at startup: %v", name, err)
		} else {
			t.mon = mon
			t.monRead.Store(mon)
		}
		close(t.ready)
		rt.tenants[name] = t
	}
	rt.startFollowing()
	return rt, nil
}

// engineOptions builds the dynfd options for one tenant's engine; a
// non-nil feed makes the engine a replication primary. A tenant.json left
// in the tenant directory by older builds, which kept a per-tenant worker
// count there, is never read.
func (rt *Runtime) engineOptions(feed *repl.Feed) []dynfd.Option {
	var opts []dynfd.Option
	if rt.cfg.CheckpointEvery != 0 {
		opts = append(opts, dynfd.WithCheckpointEvery(rt.cfg.CheckpointEvery))
	}
	if feed != nil {
		opts = append(opts, dynfd.WithChangeFeed(feed))
	}
	return opts
}

// Ready reports whether the runtime accepts work (it is not closed).
func (rt *Runtime) Ready() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return !rt.closed
}

// DataRoot returns the configured data root.
func (rt *Runtime) DataRoot() string { return rt.cfg.DataRoot }

// Limits returns the admission-control configuration in force.
func (rt *Runtime) Limits() Limits { return rt.cfg.Limits }

// CreateOptions once carried a per-tenant worker count.
//
// Deprecated: it has no fields left; use Create.
type CreateOptions struct{}

// CreateWithOptions is kept so that existing callers still compile.
//
// Deprecated: it is Create; the options are ignored.
func (rt *Runtime) CreateWithOptions(name string, columns []string, rows [][]string, _ CreateOptions) error {
	return rt.Create(name, columns, rows)
}

// Create makes a new tenant with the given schema, optionally bootstrapped
// with initial rows, durably rooted at <data-root>/<name>/. It fails with
// ErrTenantExists while a tenant of that name is live or still dropping.
func (rt *Runtime) Create(name string, columns []string, rows [][]string) error {
	if err := rt.writable(); err != nil {
		return err
	}
	if err := ValidateTenantName(name); err != nil {
		return err
	}
	if len(columns) == 0 {
		return fmt.Errorf("runtime: tenant %q needs at least one column", name)
	}
	t := &tenant{name: name, dir: filepath.Join(rt.cfg.DataRoot, name), ready: make(chan struct{})}
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return ErrClosed
	}
	if _, ok := rt.tenants[name]; ok {
		rt.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrTenantExists, name)
	}
	if max := rt.cfg.Limits.MaxTenants; max > 0 && len(rt.tenants) >= max {
		rt.mu.Unlock()
		return fmt.Errorf("%w (limit %d)", ErrTooManyTenants, max)
	}
	rt.tenants[name] = t // placeholder: concurrent creates of name now fail
	rt.mu.Unlock()

	// The slow part — opening the store, bootstrapping — runs outside the
	// runtime lock so tenants create in parallel.
	err := os.MkdirAll(t.dir, 0o755)
	t.feed = rt.newFeed()
	var mon *dynfd.DurableMonitor
	if err == nil {
		mon, err = dynfd.OpenDurable(t.dir, columns, rt.engineOptions(t.feed)...)
	}
	if err == nil && len(rows) > 0 {
		if berr := mon.Bootstrap(rows); berr != nil {
			mon.Close()
			err = berr
		}
	}
	if err != nil {
		os.RemoveAll(t.dir) // a failed create must not leak a directory
		t.initErr = err
		close(t.ready)
		rt.mu.Lock()
		if rt.tenants[name] == t {
			delete(rt.tenants, name)
		}
		rt.mu.Unlock()
		return fmt.Errorf("runtime: creating tenant %q: %w", name, err)
	}
	t.mon = mon
	t.monRead.Store(mon)
	close(t.ready)
	rt.logger.Printf("runtime: tenant %q created (%d columns, %d rows)", name, len(columns), len(rows))
	return nil
}

// get resolves a live tenant, waiting out an in-progress create.
func (rt *Runtime) get(name string) (*tenant, error) {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil, ErrClosed
	}
	t, ok := rt.tenants[name]
	rt.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTenant, name)
	}
	<-t.ready
	if t.initErr != nil {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTenant, name)
	}
	return t, nil
}

// Drop closes the tenant's engine and deletes its directory. In-flight
// batches finish first (they hold the tenant lock); the name only becomes
// creatable again once the directory is gone.
func (rt *Runtime) Drop(name string) error {
	if err := rt.writable(); err != nil {
		return err
	}
	return rt.drop(name)
}

// drop is Drop without the follower write gate — the replication manager
// uses it to retire tenants the primary dropped.
func (rt *Runtime) drop(name string) error {
	t, err := rt.get(name)
	if err != nil {
		return err
	}
	if h := t.folH.Load(); h != nil {
		h.cancel() // stop replaying into an engine about to close
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoSuchTenant, name)
	}
	t.closed = true
	t.dropped.Store(true)
	t.monRead.Store(nil)
	var closeErr error
	if t.mon != nil {
		closeErr = t.mon.Close()
	}
	if t.feed != nil {
		t.feed.Close()
	}
	t.mu.Unlock()
	rmErr := os.RemoveAll(t.dir)
	rt.mu.Lock()
	if rt.tenants[name] == t {
		delete(rt.tenants, name)
	}
	rt.mu.Unlock()
	rt.logger.Printf("runtime: tenant %q dropped", name)
	if closeErr != nil {
		return fmt.Errorf("runtime: closing tenant %q: %w", name, closeErr)
	}
	if rmErr != nil {
		return fmt.Errorf("runtime: deleting tenant %q: %w", name, rmErr)
	}
	return nil
}

// ApplyResult acknowledges one durably applied batch: the sequence number
// it is fsynced under, the surrogate ids its inserts and updates received,
// and the FD diff rendered with the tenant's column names. All fields are
// captured atomically with the apply, so they describe exactly this batch.
type ApplyResult struct {
	Seq         uint64
	InsertedIDs []int64
	Added       []string
	Removed     []string
}

// Apply admits and durably applies one batch to the named tenant.
// Admission is two gates: the global in-flight cap (ErrOverloaded) and the
// tenant's own in-flight cap (ErrTenantBusy) — both counted per
// admitted-but-unfinished batch, so a stalled tenant saturates its own
// budget long before the global one.
func (rt *Runtime) Apply(name string, changes []dynfd.Change) (ApplyResult, error) {
	if err := rt.writable(); err != nil {
		return ApplyResult{}, err
	}
	t, err := rt.get(name)
	if err != nil {
		return ApplyResult{}, err
	}
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return ApplyResult{}, ErrClosed
	}
	if max := rt.cfg.Limits.MaxInFlight; max > 0 && rt.inFlight >= max {
		rt.mu.Unlock()
		return ApplyResult{}, fmt.Errorf("%w (limit %d)", ErrOverloaded, max)
	}
	rt.inFlight++
	rt.mu.Unlock()
	defer func() {
		rt.mu.Lock()
		rt.inFlight--
		rt.mu.Unlock()
	}()

	t.statMu.Lock()
	if max := rt.cfg.Limits.MaxTenantInFlight; max > 0 && t.inFlight >= max {
		t.statMu.Unlock()
		return ApplyResult{}, fmt.Errorf("%w: %q (limit %d)", ErrTenantBusy, name, rt.cfg.Limits.MaxTenantInFlight)
	}
	t.inFlight++
	t.statMu.Unlock()
	defer func() {
		t.statMu.Lock()
		t.inFlight--
		t.statMu.Unlock()
	}()

	// Stage under the tenant mutation lock, wait for durability outside
	// it: while the group fsync runs, the next batch can stage and every
	// read endpoint keeps serving from the published snapshot.
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ApplyResult{}, fmt.Errorf("%w: %q", ErrNoSuchTenant, name)
	}
	if q := t.quarErr(); q != nil {
		t.mu.Unlock()
		return ApplyResult{}, &QuarantineError{Tenant: name, Err: q}
	}
	mon := t.mon
	start := time.Now()
	diff, commit, err := mon.ApplyStaged(changes...)
	if err != nil {
		if perr := mon.Err(); perr != nil {
			// The engine poisoned itself: durable and in-memory state may
			// have diverged. Quarantine the tenant; the rest of the fleet
			// keeps serving.
			t.setQuarantine(perr)
			t.mu.Unlock()
			rt.logger.Printf("runtime: tenant %q quarantined: %v", name, perr)
			return ApplyResult{}, &QuarantineError{Tenant: name, Err: perr}
		}
		t.mu.Unlock()
		// Batch rejected by precheck — engine state untouched and healthy.
		return ApplyResult{}, fmt.Errorf("runtime: tenant %q: %w", name, err)
	}
	res := ApplyResult{Seq: mon.Seq(), InsertedIDs: diff.InsertedIDs}
	for _, f := range diff.Added {
		res.Added = append(res.Added, mon.FormatFD(f))
	}
	for _, f := range diff.Removed {
		res.Removed = append(res.Removed, mon.FormatFD(f))
	}
	t.mu.Unlock()

	// The batch is staged but not durable; concurrent Applies coalesce
	// their fsyncs here. A wait failure means the batch must NOT be
	// acknowledged — the engine has poisoned itself.
	if werr := commit.Wait(); werr != nil {
		perr := werr
		if e := mon.Err(); e != nil {
			perr = e
		}
		t.setQuarantine(perr)
		rt.logger.Printf("runtime: tenant %q quarantined: %v", name, perr)
		return ApplyResult{}, &QuarantineError{Tenant: name, Err: perr}
	}
	elapsed := time.Since(start)
	t.statMu.Lock()
	t.batches++
	if len(t.lat) < latencyWindow {
		t.lat = append(t.lat, elapsed)
	} else {
		t.lat[t.latPos] = elapsed
		t.latPos = (t.latPos + 1) % len(t.lat)
	}
	t.statMu.Unlock()
	return res, nil
}

// View runs f with exclusive access to the named tenant's monitor. Reads
// are served even while the tenant is quarantined (the in-memory covers
// stay intact); a tenant whose recovery failed has no monitor and returns
// its QuarantineError instead.
func (rt *Runtime) View(name string, f func(*dynfd.DurableMonitor) error) error {
	t, err := rt.get(name)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("%w: %q", ErrNoSuchTenant, name)
	}
	if t.mon == nil {
		return &QuarantineError{Tenant: name, Err: t.quarErr()}
	}
	return f(t.mon)
}

// Snapshot returns the named tenant's latest published result snapshot
// together with its staged sequence number (the high-water mark of
// batches accepted so far; it exceeds the snapshot's Seq by exactly the
// batches whose commits are still in flight). The call never takes the
// tenant mutation lock — it is a map lookup plus two atomic loads — so
// it stays fast while a writer streams batches. A tenant whose recovery
// failed has no snapshot and returns its QuarantineError.
func (rt *Runtime) Snapshot(name string) (snap *dynfd.ResultSnapshot, stagedSeq uint64, err error) {
	t, err := rt.get(name)
	if err != nil {
		return nil, 0, err
	}
	if t.dropped.Load() {
		return nil, 0, fmt.Errorf("%w: %q", ErrNoSuchTenant, name)
	}
	mon := t.monRead.Load()
	if mon == nil {
		return nil, 0, &QuarantineError{Tenant: name, Err: t.quarErr()}
	}
	return mon.Snapshot(), mon.Seq(), nil
}

// Checkpoint folds the named tenant's WAL into a fresh snapshot now.
func (rt *Runtime) Checkpoint(name string) (seq uint64, err error) {
	if err := rt.writable(); err != nil {
		return 0, err
	}
	t, err := rt.get(name)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchTenant, name)
	}
	if q := t.quarErr(); q != nil || t.mon == nil {
		return 0, &QuarantineError{Tenant: name, Err: q}
	}
	if err := t.mon.Checkpoint(); err != nil {
		return 0, fmt.Errorf("runtime: checkpointing tenant %q: %w", name, err)
	}
	return t.mon.Seq(), nil
}

// Close drains and shuts every tenant down: in-flight batches finish, each
// healthy engine writes its final checkpoint, the data root's lock is
// released, and the runtime refuses all further work with ErrClosed. The
// first close error is returned.
func (rt *Runtime) Close() error {
	// Followers first: stop replaying before the engines close underneath.
	rt.stopFollowing()
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil
	}
	rt.closed = true
	slots := make([]*tenant, 0, len(rt.tenants))
	for _, t := range rt.tenants {
		slots = append(slots, t)
	}
	rt.mu.Unlock()
	var first error
	for _, t := range slots {
		<-t.ready
		if t.initErr != nil {
			continue
		}
		t.mu.Lock()
		if !t.closed {
			t.closed = true
			t.dropped.Store(true)
			if t.mon != nil {
				if err := t.mon.Close(); err != nil && first == nil {
					first = fmt.Errorf("runtime: closing tenant %q: %w", t.name, err)
				}
			}
			if t.feed != nil {
				t.feed.Close()
			}
		}
		t.mu.Unlock()
	}
	if err := rt.lock.Close(); err != nil && first == nil {
		first = fmt.Errorf("runtime: releasing data root lock: %w", err)
	}
	return first
}
