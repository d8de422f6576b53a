package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynfd/internal/runtime"
)

// newTestServer starts an in-process service over a fresh data root with
// one pre-created tenant "t0" (columns zip,city) and small limits.
func newTestServer(t *testing.T) (*httptest.Server, *runtime.Runtime) {
	t.Helper()
	limits := runtime.DefaultLimits()
	limits.MaxBodyBytes = 4096
	limits.MaxPending = 64
	rt, err := runtime.Open(runtime.Config{DataRoot: t.TempDir(), Limits: limits})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	if err := rt.Create("t0", []string{"zip", "city"}, [][]string{{"14482", "Potsdam"}, {"10115", "Berlin"}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(rt).Handler())
	t.Cleanup(ts.Close)
	return ts, rt
}

func doReq(t *testing.T, ts *httptest.Server, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestEndpointErrorMatrix drives every endpoint through the documented
// failure modes — bad tenant name, unknown tenant, malformed JSON,
// oversized body, method mismatch — and asserts the documented status code
// and a JSON error body. A 500 anywhere means a handler panicked.
func TestEndpointErrorMatrix(t *testing.T) {
	t.Parallel()
	ts, _ := newTestServer(t)
	bigBody := `{"changes":[{"op":"insert","values":["` + strings.Repeat("x", 8192) + `"]}]}`

	tests := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		// Method mismatches.
		{"healthz-post", "POST", "/healthz", "", 405},
		{"readyz-delete", "DELETE", "/readyz", "", 405},
		{"metrics-post", "POST", "/metrics", "", 405},
		{"tenants-delete", "DELETE", "/v1/tenants", "", 405},
		{"tenant-post", "POST", "/v1/tenants/t0", "", 405},
		{"batch-get", "GET", "/v1/tenants/t0/batch", "", 405},
		{"fds-post", "POST", "/v1/tenants/t0/fds", "", 405},
		{"keys-post", "POST", "/v1/tenants/t0/keys?columns=zip", "", 405},
		{"inds-delete", "DELETE", "/v1/tenants/t0/inds", "", 405},
		{"violations-post", "POST", "/v1/tenants/t0/violations?rhs=city", "", 405},
		{"snapshot-get", "GET", "/v1/tenants/t0/snapshot", "", 405},
		{"tenant-metrics-post", "POST", "/v1/tenants/t0/metrics", "", 405},

		// Bad tenant names (path-level validation).
		{"bad-name-upper", "GET", "/v1/tenants/T0", "", 400},
		{"bad-name-dotdot", "GET", "/v1/tenants/..", "", 400},
		{"bad-name-leading-dash", "DELETE", "/v1/tenants/-x", "", 400},
		{"bad-name-verb", "POST", "/v1/tenants/No!/batch", `{"changes":[{"op":"insert","values":["a","b"]}]}`, 400},
		{"bad-name-create", "POST", "/v1/tenants", `{"name":"Not Valid","columns":["a"]}`, 400},

		// Unknown tenants.
		{"unknown-info", "GET", "/v1/tenants/ghost", "", 404},
		{"unknown-drop", "DELETE", "/v1/tenants/ghost", "", 404},
		{"unknown-batch", "POST", "/v1/tenants/ghost/batch", `{"changes":[{"op":"insert","values":["a","b"]}]}`, 404},
		{"unknown-fds", "GET", "/v1/tenants/ghost/fds", "", 404},
		{"unknown-keys", "GET", "/v1/tenants/ghost/keys?columns=a", "", 404},
		{"unknown-inds", "GET", "/v1/tenants/ghost/inds", "", 404},
		{"unknown-violations", "GET", "/v1/tenants/ghost/violations?rhs=a", "", 404},
		{"unknown-snapshot", "POST", "/v1/tenants/ghost/snapshot", "", 404},
		{"unknown-metrics", "GET", "/v1/tenants/ghost/metrics", "", 404},

		// Malformed JSON bodies.
		{"create-bad-json", "POST", "/v1/tenants", `{"name":`, 400},
		{"create-unknown-field", "POST", "/v1/tenants", `{"name":"x","columns":["a"],"bogus":1}`, 400},
		{"create-trailing", "POST", "/v1/tenants", `{"name":"x","columns":["a"]} extra`, 400},
		{"batch-bad-json", "POST", "/v1/tenants/t0/batch", `{"changes":`, 400},
		{"batch-empty", "POST", "/v1/tenants/t0/batch", `{"changes":[]}`, 400},
		{"batch-bad-op", "POST", "/v1/tenants/t0/batch", `{"changes":[{"op":"upsert","values":["a","b"]}]}`, 400},
		{"batch-delete-no-id", "POST", "/v1/tenants/t0/batch", `{"changes":[{"op":"delete"}]}`, 400},
		{"batch-insert-with-id", "POST", "/v1/tenants/t0/batch", `{"changes":[{"op":"insert","id":1,"values":["a","b"]}]}`, 400},
		{"batch-update-no-values", "POST", "/v1/tenants/t0/batch", `{"changes":[{"op":"update","id":0}]}`, 400},

		// Semantically invalid batches (decode fine, engine precheck rejects).
		{"batch-bad-arity", "POST", "/v1/tenants/t0/batch", `{"changes":[{"op":"insert","values":["only-one"]}]}`, 422},
		{"batch-unknown-id", "POST", "/v1/tenants/t0/batch", `{"changes":[{"op":"delete","id":99999}]}`, 422},

		// Oversized bodies.
		{"batch-oversized", "POST", "/v1/tenants/t0/batch", bigBody, 413},
		{"create-oversized", "POST", "/v1/tenants", `{"name":"big","columns":["` + strings.Repeat("c", 8192) + `"]}`, 413},

		// Bad query parameters.
		{"keys-no-columns", "GET", "/v1/tenants/t0/keys", "", 400},
		{"keys-unknown-column", "GET", "/v1/tenants/t0/keys?columns=nope", "", 400},
		{"violations-no-rhs", "GET", "/v1/tenants/t0/violations", "", 400},
		{"violations-bad-max", "GET", "/v1/tenants/t0/violations?rhs=city&max=many", "", 400},
		{"violations-unknown-col", "GET", "/v1/tenants/t0/violations?rhs=nope", "", 400},

		// Unknown routes.
		{"root", "GET", "/", "", 404},
		{"unknown-verb", "GET", "/v1/tenants/t0/covers", "", 404},
		{"deep-path", "GET", "/v1/tenants/t0/fds/extra", "", 404},
		{"tenants-prefix", "GET", "/v1/tenant", "", 404},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := doReq(t, ts, tc.method, tc.path, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s = %d, want %d (body %s)", tc.method, tc.path, resp.StatusCode, tc.want, body)
			}
			var e errorBody
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("%s %s: non-JSON error body %q (%v)", tc.method, tc.path, body, err)
			}
			if resp.StatusCode == 405 && resp.Header.Get("Allow") == "" {
				t.Fatalf("%s %s: 405 without Allow header", tc.method, tc.path)
			}
		})
	}
}

// TestHappyPaths drives each endpoint's success case once.
func TestHappyPaths(t *testing.T) {
	t.Parallel()
	ts, _ := newTestServer(t)

	resp, body := doReq(t, ts, "GET", "/healthz", "")
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d %s", resp.StatusCode, body)
	}
	resp, _ = doReq(t, ts, "GET", "/readyz", "")
	if resp.StatusCode != 200 {
		t.Fatalf("readyz = %d", resp.StatusCode)
	}

	resp, body = doReq(t, ts, "POST", "/v1/tenants", `{"name":"h1","columns":["a","b"],"rows":[["1","x"],["2","y"]]}`)
	if resp.StatusCode != 201 {
		t.Fatalf("create = %d %s", resp.StatusCode, body)
	}
	var info runtime.TenantInfo
	if err := json.Unmarshal(body, &info); err != nil || info.Name != "h1" || info.Records != 2 {
		t.Fatalf("create body = %s (%v)", body, err)
	}
	// Creating the same name again conflicts.
	resp, _ = doReq(t, ts, "POST", "/v1/tenants", `{"name":"h1","columns":["a"]}`)
	if resp.StatusCode != 409 {
		t.Fatalf("duplicate create = %d", resp.StatusCode)
	}

	resp, body = doReq(t, ts, "POST", "/v1/tenants/h1/batch", `{"changes":[{"op":"insert","values":["3","z"]},{"op":"delete","id":0}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("batch = %d %s", resp.StatusCode, body)
	}
	var ack batchResponse
	if err := json.Unmarshal(body, &ack); err != nil || ack.Seq != 1 || len(ack.InsertedIDs) != 1 {
		t.Fatalf("batch ack = %s (%v)", body, err)
	}

	resp, body = doReq(t, ts, "GET", "/v1/tenants", "")
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"h1"`) || !strings.Contains(string(body), `"t0"`) {
		t.Fatalf("list = %d %s", resp.StatusCode, body)
	}

	resp, body = doReq(t, ts, "GET", "/v1/tenants/t0/fds", "")
	if resp.StatusCode != 200 || !strings.Contains(string(body), "rendered") {
		t.Fatalf("fds = %d %s", resp.StatusCode, body)
	}

	resp, body = doReq(t, ts, "GET", "/v1/tenants/t0/keys?columns=zip", "")
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"unique":true`) {
		t.Fatalf("keys = %d %s", resp.StatusCode, body)
	}

	resp, body = doReq(t, ts, "GET", "/v1/tenants/t0/inds", "")
	if resp.StatusCode != 200 {
		t.Fatalf("inds = %d %s", resp.StatusCode, body)
	}

	resp, body = doReq(t, ts, "GET", "/v1/tenants/t0/violations?lhs=zip&rhs=city", "")
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"g3"`) {
		t.Fatalf("violations = %d %s", resp.StatusCode, body)
	}

	resp, body = doReq(t, ts, "POST", "/v1/tenants/h1/snapshot", "")
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"seq":1`) {
		t.Fatalf("snapshot = %d %s", resp.StatusCode, body)
	}

	resp, body = doReq(t, ts, "GET", "/v1/tenants/h1/metrics", "")
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"wal_syncs":1`) {
		t.Fatalf("tenant metrics = %d %s", resp.StatusCode, body)
	}
	resp, body = doReq(t, ts, "GET", "/metrics", "")
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"latency_p99_ns"`) {
		t.Fatalf("metrics = %d %s", resp.StatusCode, body)
	}

	resp, _ = doReq(t, ts, "DELETE", "/v1/tenants/h1", "")
	if resp.StatusCode != 204 {
		t.Fatalf("drop = %d", resp.StatusCode)
	}
	resp, _ = doReq(t, ts, "GET", "/v1/tenants/h1", "")
	if resp.StatusCode != 404 {
		t.Fatalf("info after drop = %d", resp.StatusCode)
	}
}

// TestQuarantinedTenantAnswers503 corrupts a tenant's store, reopens the
// service, and checks the HTTP surface: writes 503 with the tenant named,
// the tenant still listed as quarantined, healthy tenants untouched.
func TestQuarantinedTenantAnswers503(t *testing.T) {
	t.Parallel()
	root := t.TempDir()
	rt, err := runtime.Open(runtime.Config{DataRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Create("sick", []string{"a", "b"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Create("healthy", []string{"a", "b"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := corruptCheckpoint(root, "sick"); err != nil {
		t.Fatal(err)
	}
	rt2, err := runtime.Open(runtime.Config{DataRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt2.Close() })
	ts := httptest.NewServer(New(rt2).Handler())
	t.Cleanup(ts.Close)

	resp, body := doReq(t, ts, "POST", "/v1/tenants/sick/batch", `{"changes":[{"op":"insert","values":["1","2"]}]}`)
	if resp.StatusCode != 503 || !strings.Contains(string(body), "sick") {
		t.Fatalf("quarantined batch = %d %s", resp.StatusCode, body)
	}
	resp, body = doReq(t, ts, "GET", "/v1/tenants/sick", "")
	if resp.StatusCode != 200 || !strings.Contains(string(body), "quarantined") {
		t.Fatalf("quarantined info = %d %s", resp.StatusCode, body)
	}
	resp, _ = doReq(t, ts, "POST", "/v1/tenants/healthy/batch", `{"changes":[{"op":"insert","values":["1","2"]}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("healthy batch alongside quarantine = %d", resp.StatusCode)
	}
}

func corruptCheckpoint(root, tenant string) error {
	return os.WriteFile(filepath.Join(root, tenant, "checkpoint.json"), []byte("{broken"), 0o644)
}

// TestPendingCapOnBatch: a batch with more changes than Limits.MaxPending
// is rejected up front with 400.
func TestPendingCapOnBatch(t *testing.T) {
	t.Parallel()
	ts, _ := newTestServer(t)
	var b strings.Builder
	b.WriteString(`{"changes":[`)
	for i := 0; i < 65; i++ { // limit in newTestServer is 64
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"op":"insert","values":["%d","x"]}`, i)
	}
	b.WriteString(`]}`)
	resp, body := doReq(t, ts, "POST", "/v1/tenants/t0/batch", b.String())
	if resp.StatusCode != 400 || !strings.Contains(string(body), "limit 64") {
		t.Fatalf("over-cap batch = %d %s", resp.StatusCode, body)
	}
}

// TestCreateAcceptsLegacyWorkers: clients of builds with a per-tenant
// worker count send "workers" in the create body. The strict decoder must
// still accept it, and the tenant must serve the same FDs as one created
// without it.
func TestCreateAcceptsLegacyWorkers(t *testing.T) {
	t.Parallel()
	ts, _ := newTestServer(t)
	rows := `[["14482","Potsdam"],["14482","Potsdam"],["10115","Berlin"]]`
	for _, body := range []string{
		`{"name":"legacy","columns":["zip","city"],"rows":` + rows + `,"workers":2}`,
		`{"name":"plain","columns":["zip","city"],"rows":` + rows + `}`,
	} {
		if resp, data := doReq(t, ts, "POST", "/v1/tenants", body); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: status %d: %s", body, resp.StatusCode, data)
		}
	}
	fds := func(name string) string {
		resp, data := doReq(t, ts, "GET", "/v1/tenants/"+name+"/fds", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fds %s: status %d: %s", name, resp.StatusCode, data)
		}
		var got struct {
			FDs json.RawMessage `json:"fds"`
		}
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		return string(got.FDs)
	}
	if legacy, plain := fds("legacy"), fds("plain"); legacy != plain {
		t.Errorf("FDs with legacy workers = %s, want %s", legacy, plain)
	}
}
