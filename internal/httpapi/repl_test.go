package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dynfd"
	"dynfd/internal/repl"
	"dynfd/internal/runtime"
)

// replPair is a primary and a follower service wired together over a real
// replication stream: primary API + replication endpoint, follower API
// replicating from it.
type replPair struct {
	primary    *httptest.Server
	follower   *httptest.Server
	primaryRT  *runtime.Runtime
	followerRT *runtime.Runtime
}

// newReplPair starts the pair with one pre-created tenant "t0". The
// primary advertises its public API URL, so followers can redirect.
func newReplPair(t *testing.T) *replPair {
	t.Helper()
	limits := runtime.DefaultLimits()
	prt, err := runtime.Open(runtime.Config{
		DataRoot:         t.TempDir(),
		Limits:           limits,
		ServeReplication: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prt.Close() })
	if err := prt.Create("t0", []string{"zip", "city"}, [][]string{{"14482", "Potsdam"}, {"10115", "Berlin"}}); err != nil {
		t.Fatal(err)
	}
	papi := httptest.NewServer(New(prt).Handler())
	t.Cleanup(papi.Close)
	rsrv := repl.NewServer(prt)
	rsrv.Advertise = papi.URL
	rsrv.Heartbeat = 20 * time.Millisecond
	rts := httptest.NewServer(rsrv.Handler())
	t.Cleanup(rts.Close)

	frt, err := runtime.Open(runtime.Config{
		DataRoot:      t.TempDir(),
		Limits:        limits,
		ReplicateFrom: rts.URL,
		ReplPoll:      25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { frt.Close() })
	fapi := httptest.NewServer(New(frt).Handler())
	t.Cleanup(fapi.Close)
	return &replPair{primary: papi, follower: fapi, primaryRT: prt, followerRT: frt}
}

// readFields are the bounded-staleness fields every read response carries.
type readFields struct {
	Seq        uint64  `json:"seq"`
	Staleness  uint64  `json:"staleness"`
	PrimarySeq *uint64 `json:"primary_seq"`
	Lag        *uint64 `json:"lag"`
	Connected  *bool   `json:"connected"`
}

func readFDs(t *testing.T, ts *httptest.Server, query string) (int, readFields, []byte) {
	t.Helper()
	resp, body := doReq(t, ts, "GET", "/v1/tenants/t0/fds"+query, "")
	var f readFields
	if resp.StatusCode == 200 {
		if err := json.Unmarshal(body, &f); err != nil {
			t.Fatalf("bad read body %s: %v", body, err)
		}
	}
	return resp.StatusCode, f, body
}

// waitFollowerSeq polls the follower's read surface until it reports the
// wanted sequence.
func waitFollowerSeq(t *testing.T, ts *httptest.Server, want uint64) readFields {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		code, f, body := readFDs(t, ts, "")
		if code == 200 && f.Seq == want {
			return f
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never reached seq %d: last %d %s", want, code, body)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFollowerBoundedStalenessContract is the HTTP-level staleness
// property: the follower's read responses must carry a lag consistent
// with primary_seq - seq, max_lag must gate stale reads with 503 or a 307
// redirect to the advertised primary, and reads must drain to lag 0 once
// replay resumes.
func TestFollowerBoundedStalenessContract(t *testing.T) {
	p := newReplPair(t)
	_, base, _ := readFDs(t, p.primary, "")
	waitFollowerSeq(t, p.follower, base.Seq)

	// Freeze the follower's replay by holding the tenant mutation lock
	// (View does), then commit on the primary: primary_seq still advances
	// over the stream, the local snapshot cannot, so lag becomes real and
	// deterministic rather than a race window.
	unblock := make(chan struct{})
	viewDone := make(chan error, 1)
	go func() {
		viewDone <- p.followerRT.View("t0", func(*dynfd.DurableMonitor) error {
			<-unblock
			return nil
		})
	}()
	defer func() {
		select {
		case <-unblock:
		default:
			close(unblock)
		}
		if err := <-viewDone; err != nil {
			t.Errorf("view: %v", err)
		}
	}()

	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"changes":[{"op":"insert","values":["%05d","Lag City"]}]}`, 90000+i)
		if resp, data := doReq(t, p.primary, "POST", "/v1/tenants/t0/batch", body); resp.StatusCode != 200 {
			t.Fatalf("primary batch: %d %s", resp.StatusCode, data)
		}
	}

	// The follower now lags; bounded reads must refuse.
	deadline := time.Now().Add(20 * time.Second)
	for {
		code, f, _ := readFDs(t, p.follower, "")
		if f.PrimarySeq == nil || f.Lag == nil {
			t.Fatal("follower response missing replication fields")
		}
		if *f.Lag != *f.PrimarySeq-f.Seq {
			t.Fatalf("inconsistent lag: lag %d, primary_seq %d, seq %d", *f.Lag, *f.PrimarySeq, f.Seq)
		}
		if code == 200 && *f.Lag > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never observed lag while replay was frozen")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, body := doReq(t, p.follower, "GET", "/v1/tenants/t0/fds?max_lag=0", "")
	if resp.StatusCode != 503 {
		t.Fatalf("bounded stale read: %d %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	req, _ := doReq(t, p.follower, "GET", "/v1/tenants/t0/keys?columns=zip&max_lag=0", "")
	if req.StatusCode != 503 {
		t.Fatalf("keys stale read: %d, want 503", req.StatusCode)
	}

	// With redirect=1 the follower hands the client to the primary.
	client := p.follower.Client()
	client.CheckRedirect = func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }
	redir, err := client.Get(p.follower.URL + "/v1/tenants/t0/fds?max_lag=0&redirect=1")
	if err != nil {
		t.Fatal(err)
	}
	redir.Body.Close()
	if redir.StatusCode != 307 {
		t.Fatalf("redirect read: %d, want 307", redir.StatusCode)
	}
	loc := redir.Header.Get("Location")
	if !strings.HasPrefix(loc, p.primary.URL) || !strings.Contains(loc, "/v1/tenants/t0/fds") {
		t.Fatalf("redirect location %q does not target the primary", loc)
	}

	// Unfreeze: replay resumes, lag drains to zero, bounded reads succeed.
	close(unblock)
	_, pf, _ := readFDs(t, p.primary, "")
	f := waitFollowerSeq(t, p.follower, pf.Seq)
	if *f.Lag != 0 {
		t.Fatalf("drained follower still reports lag %d", *f.Lag)
	}
	code, f2, body2 := readFDs(t, p.follower, "?max_lag=0")
	if code != 200 || *f2.Lag != 0 {
		t.Fatalf("bounded read after drain: %d %s", code, body2)
	}
	if f2.Connected == nil || !*f2.Connected {
		t.Fatal("drained follower not connected")
	}

	// The replicated query surface matches the primary's.
	_, pBody := doReq(t, p.primary, "GET", "/v1/tenants/t0/fds", "")
	_, fBody := doReq(t, p.follower, "GET", "/v1/tenants/t0/fds", "")
	if stripVolatile(t, pBody) != stripVolatile(t, fBody) {
		t.Fatalf("fds diverge:\nprimary  %s\nfollower %s", pBody, fBody)
	}
}

// stripVolatile drops the per-node staleness fields so payloads compare.
func stripVolatile(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("bad body %s: %v", body, err)
	}
	for _, k := range []string{"seq", "staleness", "primary_seq", "lag", "connected", "role", "last_frame_at"} {
		delete(m, k)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestFollowerRejectsWrites: every mutating endpoint on a follower must
// fail with 403 without touching the replicated state.
func TestFollowerRejectsWrites(t *testing.T) {
	p := newReplPair(t)
	waitFollowerSeq(t, p.follower, 1) // bootstrap checkpoint consumed seq 1

	writes := []struct {
		method, path, body string
	}{
		{"POST", "/v1/tenants/t0/batch", `{"changes":[{"op":"insert","values":["x","y"]}]}`},
		{"POST", "/v1/tenants", `{"name":"t9","columns":["a"]}`},
		{"DELETE", "/v1/tenants/t0", ""},
		{"POST", "/v1/tenants/t0/snapshot", ""},
	}
	for _, w := range writes {
		resp, body := doReq(t, p.follower, w.method, w.path, w.body)
		if resp.StatusCode != 403 {
			t.Errorf("%s %s on follower: %d %s, want 403", w.method, w.path, resp.StatusCode, body)
		}
	}
	// Reads still work after the refused writes.
	if code, _, body := readFDs(t, p.follower, ""); code != 200 {
		t.Fatalf("read after refused writes: %d %s", code, body)
	}
}

// TestFollowerTracksTenantLifecycle: tenants created and dropped on the
// primary appear and disappear on the follower within a poll interval.
func TestFollowerTracksTenantLifecycle(t *testing.T) {
	p := newReplPair(t)
	waitFollowerSeq(t, p.follower, 1)

	if err := p.primaryRT.Create("t1", []string{"a", "b"}, [][]string{{"1", "2"}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, _ := doReq(t, p.follower, "GET", "/v1/tenants/t1/fds", "")
		if resp.StatusCode == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never picked up created tenant t1")
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := p.primaryRT.Drop("t1"); err != nil {
		t.Fatal(err)
	}
	for {
		resp, _ := doReq(t, p.follower, "GET", "/v1/tenants/t1/fds", "")
		if resp.StatusCode == 404 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never dropped tenant t1")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// t0 is untouched by t1's lifecycle.
	if code, _, body := readFDs(t, p.follower, ""); code != 200 {
		t.Fatalf("t0 read after t1 drop: %d %s", code, body)
	}
}
