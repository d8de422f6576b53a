// Package httpapi exposes a multi-tenant DynFD runtime over HTTP+JSON.
// The package only routes and translates: every decision about tenants,
// admission, durability, and quarantine lives in internal/runtime.
//
// Endpoints (all request and response bodies are JSON):
//
//	GET    /healthz                          process liveness
//	GET    /readyz                           runtime readiness (503 while shutting down)
//	GET    /metrics                          per-tenant operational metrics
//	GET    /v1/tenants                       list tenants
//	POST   /v1/tenants                       create tenant {"name","columns",["rows"],["workers"]}
//	GET    /v1/tenants/{t}                   tenant info
//	DELETE /v1/tenants/{t}                   drop tenant (engine closed, directory deleted)
//	POST   /v1/tenants/{t}/batch             apply one durable batch {"changes":[...]}
//	GET    /v1/tenants/{t}/fds               current minimal FDs
//	GET    /v1/tenants/{t}/keys?columns=a,b  is the column set unique right now?
//	GET    /v1/tenants/{t}/inds              current unary inclusion dependencies
//	GET    /v1/tenants/{t}/violations?lhs=a,b&rhs=c[&max=n]  why an FD fails, plus g3 error
//	POST   /v1/tenants/{t}/snapshot          force a checkpoint
//	GET    /v1/tenants/{t}/metrics           one tenant's metrics
//	GET    /repl/v1/status                   failover role, fence, per-tenant replication positions
//	POST   /repl/v1/promote                  promote this follower to a writable primary
//	POST   /repl/v1/demote                   inform this node a higher epoch won {"epoch",["primary"],["advertise"]}
//
// Read endpoints (/fds, /keys, /inds, /violations, tenant info, and the
// metrics) are served from each tenant's last published result snapshot
// (DESIGN.md §14): they take no engine lock, never queue behind an
// in-flight batch, and report the snapshot's "seq" plus a "staleness"
// count of batches staged but not yet durably committed.
//
// Every read response carries "role" (primary/follower/fenced) and the
// tenant's fencing "epoch" (DESIGN.md §16). On a runtime replicating from
// a primary (DESIGN.md §15), read responses additionally carry
// "primary_seq", "lag", "connected", and "last_frame_at", writes fail
// with 403, and any read may bound its tolerated staleness with
// ?max_lag=N — exceeded, the response is 503 (Retry-After: 1) or, with
// ?redirect=1, a 307 to the primary's advertised URL. A write rejected on
// a fenced ex-primary answers 403 with the winning "epoch" and, when
// known, the winner's "primary" (replication) and "advertise" (API) URLs
// in the body, so clients chase the failover winner.
//
// Error contract: every non-2xx response carries {"error": "..."}; the
// handler never panics outward (a recovered panic is a 500). Status codes:
// 400 malformed input or invalid tenant name, 403 write on a read-only
// follower, 404 unknown tenant or route, 405 method mismatch (with Allow
// header), 409 tenant exists, 413 body over the limit, 422 batch rejected
// by the engine precheck, 429 per-tenant admission cap, and 503
// quarantined tenant, global overload, excessive lag, or shutdown.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"dynfd"
	"dynfd/internal/runtime"
)

// Server routes HTTP requests onto a runtime.
type Server struct {
	rt     *runtime.Runtime
	limits runtime.Limits
}

// New wraps a runtime; limits come from the runtime's configuration.
func New(rt *runtime.Runtime) *Server {
	return &Server{rt: rt, limits: rt.Limits()}
}

// Handler returns the root http.Handler.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.route) }

// errorBody is the uniform non-2xx response payload.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) // a failed write means the client is gone; nothing to do
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// methodNotAllowed answers 405 with the JSON error contract and the Allow
// header the status requires.
func methodNotAllowed(w http.ResponseWriter, r *http.Request, allowed ...string) {
	w.Header().Set("Allow", strings.Join(allowed, ", "))
	writeError(w, http.StatusMethodNotAllowed, "method %s not allowed (allow %s)", r.Method, strings.Join(allowed, ", "))
}

// route is the single entry point: hand-rolled dispatch so that 404, 405,
// and panic recovery all speak the JSON error contract.
func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			// Best effort: if the handler already wrote, this is a no-op
			// on the status line but the connection still closes cleanly.
			writeError(w, http.StatusInternalServerError, "internal error: %v", p)
		}
	}()
	path := r.URL.Path
	switch path {
	case "/healthz":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, r, http.MethodGet)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return
	case "/readyz":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, r, http.MethodGet)
			return
		}
		if !s.rt.Ready() {
			writeError(w, http.StatusServiceUnavailable, "shutting down")
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	case "/metrics":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, r, http.MethodGet)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"tenants": s.rt.Metrics()})
		return
	case "/v1/tenants":
		switch r.Method {
		case http.MethodGet:
			writeJSON(w, http.StatusOK, map[string]any{"tenants": s.rt.List()})
		case http.MethodPost:
			s.createTenant(w, r)
		default:
			methodNotAllowed(w, r, http.MethodGet, http.MethodPost)
		}
		return
	case "/repl/v1/status":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, r, http.MethodGet)
			return
		}
		s.replStatus(w)
		return
	case "/repl/v1/promote":
		if r.Method != http.MethodPost {
			methodNotAllowed(w, r, http.MethodPost)
			return
		}
		s.promote(w)
		return
	case "/repl/v1/demote":
		if r.Method != http.MethodPost {
			methodNotAllowed(w, r, http.MethodPost)
			return
		}
		s.demote(w, r)
		return
	}
	rest, ok := strings.CutPrefix(path, "/v1/tenants/")
	if !ok {
		writeError(w, http.StatusNotFound, "no such route %s", path)
		return
	}
	parts := strings.Split(rest, "/")
	name := parts[0]
	if err := runtime.ValidateTenantName(name); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	switch {
	case len(parts) == 1:
		s.tenantRoot(w, r, name)
	case len(parts) == 2:
		s.tenantVerb(w, r, name, parts[1])
	default:
		writeError(w, http.StatusNotFound, "no such route %s", path)
	}
}

func (s *Server) tenantRoot(w http.ResponseWriter, r *http.Request, name string) {
	switch r.Method {
	case http.MethodGet:
		info, err := s.rt.Info(name)
		if err != nil {
			s.runtimeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	case http.MethodDelete:
		if err := s.rt.Drop(name); err != nil {
			s.runtimeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		methodNotAllowed(w, r, http.MethodGet, http.MethodDelete)
	}
}

func (s *Server) tenantVerb(w http.ResponseWriter, r *http.Request, name, verb string) {
	switch verb {
	case "batch":
		if r.Method != http.MethodPost {
			methodNotAllowed(w, r, http.MethodPost)
			return
		}
		s.applyBatch(w, r, name)
	case "fds":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, r, http.MethodGet)
			return
		}
		s.fds(w, r, name)
	case "keys":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, r, http.MethodGet)
			return
		}
		s.keys(w, r, name)
	case "inds":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, r, http.MethodGet)
			return
		}
		s.inds(w, r, name)
	case "violations":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, r, http.MethodGet)
			return
		}
		s.violations(w, r, name)
	case "snapshot":
		if r.Method != http.MethodPost {
			methodNotAllowed(w, r, http.MethodPost)
			return
		}
		seq, err := s.rt.Checkpoint(name)
		if err != nil {
			s.runtimeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]uint64{"seq": seq})
	case "metrics":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, r, http.MethodGet)
			return
		}
		m, err := s.rt.TenantMetrics(name)
		if err != nil {
			s.runtimeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, m)
	default:
		writeError(w, http.StatusNotFound, "no such route under tenant %q: %s", name, verb)
	}
}

// runtimeError maps runtime sentinel errors onto the documented statuses.
func (s *Server) runtimeError(w http.ResponseWriter, err error) {
	var q *runtime.QuarantineError
	var fe *runtime.FencedError
	switch {
	case errors.As(err, &fe):
		writeFenced(w, fe)
	case errors.As(err, &q):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, runtime.ErrNoSuchTenant):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, runtime.ErrTenantExists):
		writeError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, runtime.ErrTenantBusy), errors.Is(err, runtime.ErrTooManyTenants):
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, runtime.ErrOverloaded), errors.Is(err, runtime.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, runtime.ErrReadOnly):
		writeError(w, http.StatusForbidden, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// readBody reads a request body under the configured byte cap, mapping an
// overrun to 413. The bool reports whether the caller may proceed.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body := r.Body
	if s.limits.MaxBodyBytes > 0 {
		body = http.MaxBytesReader(w, body, s.limits.MaxBodyBytes)
	}
	data, err := io.ReadAll(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return nil, false
		}
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return nil, false
	}
	return data, true
}

// createRequest is the body of POST /v1/tenants. Workers optionally
// overrides the daemon-wide -workers default for this tenant (0 or 1
// inline, n > 1 scheduler workers, < 0 one per CPU); the override is persisted
// with the tenant and survives restarts.
type createRequest struct {
	Name    string     `json:"name"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows,omitempty"`
	Workers *int       `json:"workers,omitempty"`
}

func (s *Server) createTenant(w http.ResponseWriter, r *http.Request) {
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req createRequest
	if err := unmarshalStrict(data, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad create request: %v", err)
		return
	}
	if err := runtime.ValidateTenantName(req.Name); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.rt.CreateWithOptions(req.Name, req.Columns, req.Rows,
		runtime.CreateOptions{Workers: req.Workers}); err != nil {
		s.runtimeError(w, err)
		return
	}
	info, err := s.rt.Info(req.Name)
	if err != nil {
		// The tenant raced away between create and info; report the create
		// as done anyway.
		info = runtime.TenantInfo{Name: req.Name, Columns: req.Columns}
	}
	writeJSON(w, http.StatusCreated, info)
}

// unmarshalStrict decodes JSON rejecting unknown fields and trailing data,
// so a typoed field name fails loudly instead of applying a half-read
// request.
func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

func (s *Server) applyBatch(w http.ResponseWriter, r *http.Request, name string) {
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	changes, err := decodeBatch(data, s.limits.MaxPending)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad batch request: %v", err)
		return
	}
	res, err := s.rt.Apply(name, changes)
	if err != nil {
		// A batch the engine prechecks and rejects (bad arity, unknown
		// record id) is semantically invalid rather than malformed.
		if !isLifecycleErr(err) {
			writeError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		s.runtimeError(w, err)
		return
	}
	writeBatchAck(w, res)
}

// isLifecycleErr reports whether err is one of the runtime's lifecycle or
// admission sentinels (as opposed to a per-batch validation failure).
func isLifecycleErr(err error) bool {
	var q *runtime.QuarantineError
	var fe *runtime.FencedError
	return errors.Is(err, runtime.ErrNoSuchTenant) ||
		errors.As(err, &fe) ||
		errors.Is(err, runtime.ErrTenantExists) ||
		errors.Is(err, runtime.ErrTenantBusy) ||
		errors.Is(err, runtime.ErrOverloaded) ||
		errors.Is(err, runtime.ErrTooManyTenants) ||
		errors.Is(err, runtime.ErrClosed) ||
		errors.Is(err, runtime.ErrReadOnly) ||
		errors.As(err, &q)
}

// readSnapshot resolves the tenant's published result snapshot plus the
// staleness fields every read response carries. All read endpoints go
// through it: they never take the tenant mutation lock, so queries stay
// fast while a writer streams batches. The bool reports whether the
// caller may proceed.
//
// The envelope always holds "seq" (the snapshot's sequence),
// "staleness" (local batches staged but not yet reflected) and "role",
// and "epoch" when the tenant's fencing epoch is readable. On a follower
// it additionally holds "primary_seq" (the primary's durable sequence as
// last observed on the replication stream), "lag" (primary_seq minus seq
// — how many primary batches this snapshot is missing), "connected", and
// "last_frame_at" once a frame arrived.
// A request may bound its tolerated lag with ?max_lag=N: when the
// snapshot is further behind, the response is 503 with a Retry-After (or,
// with ?redirect=1 and a known primary URL, a 307 to the primary).
func (s *Server) readSnapshot(w http.ResponseWriter, r *http.Request, name string) (*dynfd.ResultSnapshot, envelope, bool) {
	snap, staged, err := s.rt.Snapshot(name)
	if err != nil {
		s.runtimeError(w, err)
		return nil, envelope{}, false
	}
	env := envelope{
		seq:       snap.Seq(),
		staleness: staged - snap.Seq(),
		role:      s.rt.Role().String(),
	}
	if epoch, _, err := s.rt.ReplEpoch(name); err == nil {
		env.epoch, env.hasEpoch = epoch, true
	}
	lag, advertise := env.staleness, ""
	if rs, follower := s.rt.ReplStatus(name); follower {
		env.setFollower(rs)
		lag, advertise = env.lag, rs.Advertise
	}
	if rawMax := r.URL.Query().Get("max_lag"); rawMax != "" {
		maxLag, err := strconv.ParseUint(rawMax, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad max_lag %q: %v", rawMax, err)
			return nil, envelope{}, false
		}
		if lag > maxLag {
			if r.URL.Query().Get("redirect") != "" && advertise != "" {
				w.Header().Set("Location", strings.TrimRight(advertise, "/")+r.URL.RequestURI())
				writeError(w, http.StatusTemporaryRedirect,
					"snapshot lags %d batches behind the primary (max_lag %d); redirecting", lag, maxLag)
				return nil, envelope{}, false
			}
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable,
				"snapshot lags %d batches behind (max_lag %d)", lag, maxLag)
			return nil, envelope{}, false
		}
	}
	return snap, env, true
}

func (s *Server) fds(w http.ResponseWriter, r *http.Request, name string) {
	snap, env, ok := s.readSnapshot(w, r, name)
	if !ok {
		return
	}
	writeAppended(w, http.StatusOK, func(dst []byte) []byte {
		return appendEnvelope(dst, &env,
			member{"fds", func(dst []byte) []byte { return appendFDs(dst, snap) }})
	})
}

func (s *Server) keys(w http.ResponseWriter, r *http.Request, name string) {
	raw := r.URL.Query().Get("columns")
	if raw == "" {
		writeError(w, http.StatusBadRequest, "keys query requires ?columns=a,b")
		return
	}
	columns := strings.Split(raw, ",")
	snap, env, ok := s.readSnapshot(w, r, name)
	if !ok {
		return
	}
	unique, err := snap.Unique(columns)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeAppended(w, http.StatusOK, func(dst []byte) []byte {
		return appendEnvelope(dst, &env,
			member{"columns", func(dst []byte) []byte { return appendStrings(dst, columns) }},
			member{"unique", func(dst []byte) []byte { return strconv.AppendBool(dst, unique) }})
	})
}

func (s *Server) inds(w http.ResponseWriter, r *http.Request, name string) {
	snap, env, ok := s.readSnapshot(w, r, name)
	if !ok {
		return
	}
	cols, inds := snap.Columns(), snap.INDs()
	writeAppended(w, http.StatusOK, func(dst []byte) []byte {
		return appendEnvelope(dst, &env,
			member{"inds", func(dst []byte) []byte { return appendINDs(dst, cols, inds) }})
	})
}

func (s *Server) violations(w http.ResponseWriter, r *http.Request, name string) {
	q := r.URL.Query()
	rawLhs, rhs := q.Get("lhs"), q.Get("rhs")
	if rhs == "" {
		writeError(w, http.StatusBadRequest, "violations query requires ?rhs=c (and optionally lhs=a,b)")
		return
	}
	var lhs []string
	if rawLhs != "" {
		lhs = strings.Split(rawLhs, ",")
	}
	max := 0
	if rawMax := q.Get("max"); rawMax != "" {
		var err error
		if max, err = strconv.Atoi(rawMax); err != nil {
			writeError(w, http.StatusBadRequest, "bad max %q: %v", rawMax, err)
			return
		}
	}
	snap, env, ok := s.readSnapshot(w, r, name)
	if !ok {
		return
	}
	groups, g3, err := snap.Violations(lhs, rhs, max)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeAppended(w, http.StatusOK, func(dst []byte) []byte {
		return appendEnvelope(dst, &env,
			member{"g3", func(dst []byte) []byte { return appendFloat(dst, g3) }},
			member{"groups", func(dst []byte) []byte { return appendGroups(dst, groups) }})
	})
}
