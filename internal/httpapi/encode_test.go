package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynfd"
	"dynfd/internal/runtime"
)

// The reference encoding: the read path and batch ack the append writer
// replaced — readSnapshot's map[string]any of envelope fields, each
// endpoint's members added to it, and writeJSON over the map or the
// batchResponse struct — kept as the oracle whose bytes the append writer
// must reproduce.

// batchResponse acknowledges one durably applied batch.
type batchResponse struct {
	Seq         uint64   `json:"seq"`
	InsertedIDs []int64  `json:"inserted_ids,omitempty"`
	Added       []string `json:"added,omitempty"`
	Removed     []string `json:"removed,omitempty"`
}

// fdJSON is one rendered functional dependency.
type fdJSON struct {
	Lhs      []string `json:"lhs"`
	Rhs      string   `json:"rhs"`
	Rendered string   `json:"rendered"`
}

// violationGroupJSON is one violating record group.
type violationGroupJSON struct {
	IDs       []int64 `json:"ids"`
	RhsValues int     `json:"rhs_values"`
}

// referenceFields is the map readSnapshot built from the values it read.
func referenceFields(seq, staged uint64, role string, epoch uint64, hasEpoch bool, rs runtime.ReplStatus, follower bool) (fields map[string]any, lag uint64) {
	fields = map[string]any{
		"seq":       seq,
		"staleness": staged - seq,
		"role":      role,
	}
	if hasEpoch {
		fields["epoch"] = epoch
	}
	lag = staged - seq
	if follower {
		lag = 0
		if rs.PrimarySeq > seq {
			lag = rs.PrimarySeq - seq
		}
		fields["primary_seq"] = rs.PrimarySeq
		fields["lag"] = lag
		fields["connected"] = rs.Connected
		if !rs.LastFrameAt.IsZero() {
			fields["last_frame_at"] = rs.LastFrameAt.UTC().Format(time.RFC3339Nano)
		}
	}
	return fields, lag
}

// referenceReadSnapshot is readSnapshot as it built the map.
func (s *Server) referenceReadSnapshot(w http.ResponseWriter, r *http.Request, name string) (*dynfd.ResultSnapshot, map[string]any, bool) {
	snap, staged, err := s.rt.Snapshot(name)
	if err != nil {
		s.runtimeError(w, err)
		return nil, nil, false
	}
	epoch, _, err := s.rt.ReplEpoch(name)
	rs, follower := s.rt.ReplStatus(name)
	fields, lag := referenceFields(snap.Seq(), staged, s.rt.Role().String(), epoch, err == nil, rs, follower)
	if rawMax := r.URL.Query().Get("max_lag"); rawMax != "" {
		maxLag, err := strconv.ParseUint(rawMax, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad max_lag %q: %v", rawMax, err)
			return nil, nil, false
		}
		if lag > maxLag {
			if r.URL.Query().Get("redirect") != "" && rs.Advertise != "" {
				w.Header().Set("Location", strings.TrimRight(rs.Advertise, "/")+r.URL.RequestURI())
				writeError(w, http.StatusTemporaryRedirect,
					"snapshot lags %d batches behind the primary (max_lag %d); redirecting", lag, maxLag)
				return nil, nil, false
			}
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable,
				"snapshot lags %d batches behind (max_lag %d)", lag, maxLag)
			return nil, nil, false
		}
	}
	return snap, fields, true
}

// referenceFDs, referenceINDs and referenceGroups are the values the
// endpoints added to the map.
func referenceFDs(snap *dynfd.ResultSnapshot) []fdJSON {
	cols := snap.Columns()
	out := []fdJSON{}
	for _, f := range snap.FDs() {
		j := fdJSON{Rhs: cols[f.Rhs], Rendered: snap.FormatFD(f), Lhs: []string{}}
		for _, a := range f.Lhs {
			j.Lhs = append(j.Lhs, cols[a])
		}
		out = append(out, j)
	}
	return out
}

func referenceINDs(cols []string, inds []dynfd.IND) []runtime.UnaryIND {
	out := []runtime.UnaryIND{}
	for _, d := range inds {
		out = append(out, runtime.UnaryIND{Lhs: cols[d.Lhs], Rhs: cols[d.Rhs]})
	}
	return out
}

func referenceGroups(gs []dynfd.ViolationGroup) []violationGroupJSON {
	out := []violationGroupJSON{}
	for _, g := range gs {
		out = append(out, violationGroupJSON{IDs: g.IDs, RhsValues: g.RhsValues})
	}
	return out
}

// referenceRead serves GET /v1/tenants/{name}/{verb} as the four read
// endpoints did before the append writer.
func (s *Server) referenceRead(w http.ResponseWriter, r *http.Request, name, verb string) {
	q := r.URL.Query()
	var columns, lhs []string
	max := 0
	switch verb {
	case "keys":
		if q.Get("columns") == "" {
			writeError(w, http.StatusBadRequest, "keys query requires ?columns=a,b")
			return
		}
		columns = strings.Split(q.Get("columns"), ",")
	case "violations":
		if q.Get("rhs") == "" {
			writeError(w, http.StatusBadRequest, "violations query requires ?rhs=c (and optionally lhs=a,b)")
			return
		}
		if raw := q.Get("lhs"); raw != "" {
			lhs = strings.Split(raw, ",")
		}
		if raw := q.Get("max"); raw != "" {
			var err error
			if max, err = strconv.Atoi(raw); err != nil {
				writeError(w, http.StatusBadRequest, "bad max %q: %v", raw, err)
				return
			}
		}
	}
	snap, fields, ok := s.referenceReadSnapshot(w, r, name)
	if !ok {
		return
	}
	switch verb {
	case "fds":
		fields["fds"] = referenceFDs(snap)
	case "keys":
		unique, err := snap.Unique(columns)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		fields["columns"] = columns
		fields["unique"] = unique
	case "inds":
		fields["inds"] = referenceINDs(snap.Columns(), snap.INDs())
	case "violations":
		gs, g3, err := snap.Violations(lhs, q.Get("rhs"), max)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		fields["groups"] = referenceGroups(gs)
		fields["g3"] = g3
	}
	writeJSON(w, http.StatusOK, fields)
}

// referenceJSON is writeJSON's body for v.
func referenceJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// response is what a client sees of one answer.
type response struct {
	code                              int
	contentType, location, retryAfter string
	body                              string
}

func record(serve func(http.ResponseWriter, *http.Request), path string) response {
	rec := httptest.NewRecorder()
	serve(rec, httptest.NewRequest(http.MethodGet, path, nil))
	h := rec.Header()
	return response{rec.Code, h.Get("Content-Type"), h.Get("Location"), h.Get("Retry-After"), rec.Body.String()}
}

// checkReadMatchesReference fails t unless GET path answers the same
// status, headers and bytes through s's handler as through the reference
// read path. A follower's envelope moves with every heartbeat, so the
// handler is asked before and after the reference, and the two compare
// only once both handler answers agree.
func checkReadMatchesReference(t *testing.T, s *Server, path string) response {
	t.Helper()
	parts := strings.Split(strings.SplitN(path, "?", 2)[0], "/")
	name, verb := parts[3], parts[4]
	ref := func(w http.ResponseWriter, r *http.Request) { s.referenceRead(w, r, name, verb) }
	for attempt := 0; attempt < 100; attempt++ {
		before := record(s.Handler().ServeHTTP, path)
		want := record(ref, path)
		if after := record(s.Handler().ServeHTTP, path); after != before {
			continue
		}
		if before != want {
			t.Fatalf("GET %s:\nappend writer %+v\nreference     %+v", path, before, want)
		}
		return before
	}
	t.Fatalf("GET %s: the answer never held still for one comparison", path)
	return response{}
}

// awkwardColumns are column names on the edges of JSON string escaping.
var awkwardColumns = []string{
	"zip", `q"uote`, `back\slash`, "bs\bff\f", "ctl\x01\x1f\n\t", "ls\u2028ps\u2029",
	"é-ü-😀", "bad\xff\xfeutf8", "<html&>", "del\x7f", "", "a/b",
}

// readPaths are the converted endpoints' requests on tenant name with
// columns cols.
func readPaths(name string, cols []string) []string {
	base := "/v1/tenants/" + name + "/"
	q := func(kv ...string) string {
		v := url.Values{}
		for i := 0; i < len(kv); i += 2 {
			v.Set(kv[i], kv[i+1])
		}
		return "?" + v.Encode()
	}
	return []string{
		base + "fds",
		base + "inds",
		base + "keys" + q("columns", cols[1]+","+cols[2]),
		base + "keys" + q("columns", cols[0]),
		base + "violations" + q("lhs", cols[1], "rhs", cols[2], "max", "10"),
		base + "violations" + q("rhs", cols[3]),
		base + "violations" + q("lhs", cols[4]+","+cols[5], "rhs", cols[6], "max", "0"),
		base + "fds" + q("max_lag", "100"),
		base + "violations" + q("lhs", cols[1], "rhs", "no such column"),
		base + "keys" + q("columns", "no such column"),
		base + "fds" + q("max_lag", "x"),
	}
}

// awkwardRows is a relation over awkwardColumns whose values are awkward
// too, shaped so that it has FDs, violations and INDs.
func awkwardRows(n int) [][]string {
	vals := []string{"x", `"`, "\\", "\u2028", "é", "<>", "0", ""}
	rows := make([][]string, n)
	for i := range rows {
		row := make([]string, len(awkwardColumns))
		for j := range row {
			row[j] = vals[(i*(j+1)/(j%3+1))%len(vals)]
		}
		rows[i] = row
	}
	return rows
}

// TestReadEncodingMatchesReference is the differential check of the
// append writer: on a primary and on a follower, every converted read
// endpoint answers the bytes the reference encoding writes, over column
// names that exercise every escaping rule; so do a max_lag 503 and a 307
// redirect on a lagging follower; and the batch ack equals encoding/json
// over batchResponse for real and for awkward apply results.
func TestReadEncodingMatchesReference(t *testing.T) {
	p := newReplPair(t)
	if err := p.primaryRT.Create("w", awkwardColumns, awkwardRows(40)); err != nil {
		t.Fatal(err)
	}
	var acks []runtime.ApplyResult
	for i := 0; i < 3; i++ {
		row := awkwardRows(41 + i)[40+i]
		res, err := p.primaryRT.Apply("w", []dynfd.Change{dynfd.Insert(row...), dynfd.Delete(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, res)
	}
	primary, follower := New(p.primaryRT), New(p.followerRT)
	seq := waitSeq(t, p.primaryRT, "w", 0)
	waitSeq(t, p.followerRT, "w", seq)

	for _, s := range []*Server{primary, follower} {
		for _, path := range append(readPaths("w", awkwardColumns), readPaths("t0", []string{"zip", "city", "zip", "city", "zip", "city", "zip"})...) {
			checkReadMatchesReference(t, s, path)
		}
	}
	if r := checkReadMatchesReference(t, primary, "/v1/tenants/w/fds"); !strings.Contains(r.body, `\u2028`) || !strings.Contains(r.body, `\ufffd`) {
		t.Fatalf("awkward /fds body escapes nothing: %s", r.body)
	}

	// Freeze the follower's replay, commit on the primary, and compare
	// the bounded reads the lag refuses.
	unblock := make(chan struct{})
	viewDone := make(chan error, 1)
	go func() {
		viewDone <- p.followerRT.View("w", func(*dynfd.DurableMonitor) error {
			<-unblock
			return nil
		})
	}()
	res, err := p.primaryRT.Apply("w", []dynfd.Change{dynfd.Insert(awkwardRows(50)[49]...)})
	if err != nil {
		t.Fatal(err)
	}
	acks = append(acks, res)
	deadline := time.Now().Add(20 * time.Second)
	for {
		if rs, _ := p.followerRT.ReplStatus("w"); rs.PrimarySeq == res.Seq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never saw the primary's sequence advance")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if r := checkReadMatchesReference(t, follower, "/v1/tenants/w/fds?max_lag=0"); r.code != http.StatusServiceUnavailable {
		t.Fatalf("lagging bounded read: %+v, want 503", r)
	}
	if r := checkReadMatchesReference(t, follower, "/v1/tenants/w/violations?rhs=zip&max_lag=0&redirect=1"); r.code != http.StatusTemporaryRedirect {
		t.Fatalf("lagging redirected read: %+v, want 307", r)
	}
	checkReadMatchesReference(t, follower, "/v1/tenants/w/keys?columns=zip&max_lag=5")
	close(unblock)
	if err := <-viewDone; err != nil {
		t.Fatal(err)
	}

	acks = append(acks,
		runtime.ApplyResult{Seq: 7},
		runtime.ApplyResult{Seq: 1<<64 - 1, InsertedIDs: []int64{}, Added: []string{}, Removed: nil},
		runtime.ApplyResult{Seq: 3, InsertedIDs: []int64{-1, 1 << 62}, Added: awkwardColumns, Removed: []string{"[] -> \x00"}},
	)
	for _, res := range acks {
		checkAckMatchesReference(t, res)
	}
}

// waitSeq polls rt's published snapshot of tenant until it reaches at
// least want, and returns its sequence.
func waitSeq(t *testing.T, rt *runtime.Runtime, tenant string, want uint64) uint64 {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		snap, _, err := rt.Snapshot(tenant)
		if err == nil && snap.Seq() >= want {
			return snap.Seq()
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %q never reached seq %d: %v", tenant, want, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkAckMatchesReference fails t unless the batch ack of res equals
// encoding/json over batchResponse.
func checkAckMatchesReference(t testing.TB, res runtime.ApplyResult) {
	t.Helper()
	rec := httptest.NewRecorder()
	writeBatchAck(rec, res)
	want := referenceJSON(t, batchResponse{Seq: res.Seq, InsertedIDs: res.InsertedIDs, Added: res.Added, Removed: res.Removed})
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("batch ack of %+v:\nappend writer %s\nencoding/json %s", res, got, want)
	}
}

// FuzzReadEncode runs the differential over random column names, values
// and envelopes: an in-memory monitor over three fuzzed column names and
// rows drawn from fuzzed values, its snapshot encoded by every converted
// endpoint's append writer and by encoding/json over the reference map,
// plus a fuzzed g3 through appendFloat and the batch ack over the
// snapshot's rendered FDs.
func FuzzReadEncode(f *testing.F) {
	for i := 0; i+2 < len(awkwardColumns); i++ {
		f.Add(awkwardColumns[i], awkwardColumns[i+1], awkwardColumns[i+2], []byte{byte(i), 1, 2, 3, 4, 5, 6, 7, 8},
			uint64(i), uint64(i*3), uint64(i*5), i%2 == 0, i%3 == 0, int64(i)*1e15, float64(i)/7)
	}
	f.Add("a", "b", "c", []byte("\x00\x00\x01\x01\x02\x02"), uint64(1), uint64(0), uint64(0), false, false, int64(0), 1e-7)
	f.Add("a", "b", "c", []byte{}, uint64(0), uint64(0), uint64(9), true, true, int64(-1), 1e21)

	f.Fuzz(func(t *testing.T, c0, c1, c2 string, data []byte, seq, staged, primarySeq uint64, follower, connected bool, frame int64, g3 float64) {
		cols := []string{c0, c1, c2}
		mon, err := dynfd.NewMonitor(cols)
		if err != nil {
			return // duplicate column names
		}
		values := []string{c0, c1 + c2, "x", "\u2028", "\xff"}
		var rows [][]string
		for i := 0; i+2 < len(data); i += 3 {
			rows = append(rows, []string{values[int(data[i])%len(values)], values[int(data[i+1])%len(values)], values[int(data[i+2])%len(values)]})
		}
		if err := mon.Bootstrap(rows); err != nil {
			t.Fatal(err)
		}
		snap := mon.Snapshot()

		env := envelope{seq: seq, staleness: staged - seq, role: []string{"primary", "follower", "fenced"}[seq%3], epoch: staged, hasEpoch: connected}
		rs := runtime.ReplStatus{PrimarySeq: primarySeq, Connected: connected}
		if frame != 0 {
			rs.LastFrameAt = time.Unix(0, frame)
		}
		if follower {
			env.setFollower(rs)
		}
		fields, _ := referenceFields(seq, staged, env.role, env.epoch, env.hasEpoch, rs, follower)
		check := func(what string, got []byte, fields map[string]any) {
			t.Helper()
			if want := referenceJSON(t, fields); !bytes.Equal(append(got, '\n'), want) {
				t.Fatalf("%s:\nappend writer %s\nencoding/json %s", what, got, want)
			}
		}
		withFields := func(kv ...any) map[string]any {
			m := make(map[string]any, len(fields)+len(kv)/2)
			for k, v := range fields {
				m[k] = v
			}
			for i := 0; i < len(kv); i += 2 {
				m[kv[i].(string)] = kv[i+1]
			}
			return m
		}

		check("fds", appendEnvelope(nil, &env, member{"fds", func(dst []byte) []byte { return appendFDs(dst, snap) }}),
			withFields("fds", referenceFDs(snap)))
		inds := snap.INDs()
		check("inds", appendEnvelope(nil, &env, member{"inds", func(dst []byte) []byte { return appendINDs(dst, cols, inds) }}),
			withFields("inds", referenceINDs(cols, inds)))
		unique, err := snap.Unique(cols[:2])
		if err != nil {
			t.Fatal(err)
		}
		check("keys", appendEnvelope(nil, &env,
			member{"columns", func(dst []byte) []byte { return appendStrings(dst, cols[:2]) }},
			member{"unique", func(dst []byte) []byte { return strconv.AppendBool(dst, unique) }}),
			withFields("columns", cols[:2], "unique", unique))
		groups, vg3, err := snap.Violations(cols[:1], c2, 0)
		if err != nil {
			t.Fatal(err)
		}
		check("violations", appendEnvelope(nil, &env,
			member{"g3", func(dst []byte) []byte { return appendFloat(dst, vg3) }},
			member{"groups", func(dst []byte) []byte { return appendGroups(dst, groups) }}),
			withFields("g3", vg3, "groups", referenceGroups(groups)))

		if !math.IsNaN(g3) && !math.IsInf(g3, 0) {
			want, err := json.Marshal(g3)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendFloat(nil, g3); !bytes.Equal(got, want) {
				t.Fatalf("g3 %v: append writer %s, encoding/json %s", g3, got, want)
			}
		}

		var rendered []string
		for _, fd := range snap.FDs() {
			rendered = append(rendered, snap.FormatFD(fd))
		}
		checkAckMatchesReference(t, runtime.ApplyResult{Seq: seq, InsertedIDs: []int64{int64(frame)}, Added: rendered, Removed: cols})
	})
}

// discardWriter is a ResponseWriter that keeps nothing of the body, so
// that allocation counts and benchmarks see only the handler's own work.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestFDsHandlerAllocsFlat pins the /fds handler's allocations: they must
// not grow with the number of FDs it lists.
func TestFDsHandlerAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ts, rt := newTestServer(t)
	ts.Close()
	wide := make([]string, 9)
	for i := range wide {
		wide[i] = fmt.Sprintf("c%d", i)
	}
	rows := make([][]string, 64)
	for i := range rows {
		rows[i] = make([]string, len(wide))
		for j := range wide {
			rows[i][j] = strconv.Itoa(i * (j + 3) % (j + 5))
		}
	}
	if err := rt.Create("wide", wide, rows); err != nil {
		t.Fatal(err)
	}
	h := New(rt).Handler()
	allocs := func(tenant string) (float64, int) {
		snap, _, err := rt.Snapshot(tenant)
		if err != nil {
			t.Fatal(err)
		}
		w := &discardWriter{h: http.Header{}}
		r := httptest.NewRequest(http.MethodGet, "/v1/tenants/"+tenant+"/fds", nil)
		return testing.AllocsPerRun(200, func() { h.ServeHTTP(w, r) }), len(snap.FDs())
	}
	few, nFew := allocs("t0")
	many, nMany := allocs("wide")
	if nMany < 10*nFew || nMany < 20 {
		t.Fatalf("fixture lists %d and %d FDs; want the wide tenant to list many more", nFew, nMany)
	}
	if many > few {
		t.Fatalf("/fds allocates %.0f times for %d FDs but %.0f times for %d", many, nMany, few, nFew)
	}
}
