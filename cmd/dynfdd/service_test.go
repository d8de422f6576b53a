package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// httpDaemon is one dynfdd subprocess serving the multi-tenant HTTP API.
type httpDaemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
}

// startHTTPDaemon launches bin in -http mode and parses the listen address
// from its startup log line.
func startHTTPDaemon(t *testing.T, bin string, args ...string) *httpDaemon {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "http on "); i >= 0 {
				addr := line[i+len("http on "):]
				if j := strings.Index(addr, " "); j >= 0 {
					addr = addr[:j]
				}
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &httpDaemon{cmd: cmd, base: "http://" + addr}
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("daemon never reported its HTTP address")
		return nil
	}
}

func (d *httpDaemon) do(t *testing.T, method, path, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// tenantState captures what a restart must preserve for one tenant.
type tenantState struct {
	Seq     uint64 `json:"seq"`
	Records int    `json:"records"`
	FDs     string // sorted rendered cover
}

func (d *httpDaemon) state(t *testing.T, tenant string) tenantState {
	t.Helper()
	code, data := d.do(t, "GET", "/v1/tenants/"+tenant, "")
	if code != 200 {
		t.Fatalf("info %s = %d %s", tenant, code, data)
	}
	var st tenantState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	code, data = d.do(t, "GET", "/v1/tenants/"+tenant+"/fds", "")
	if code != 200 {
		t.Fatalf("fds %s = %d %s", tenant, code, data)
	}
	st.FDs = string(data)
	return st
}

// renderedFDs returns the tenant's FDs as its /fds endpoint renders them.
func (d *httpDaemon) renderedFDs(t *testing.T, tenant string) string {
	t.Helper()
	code, data := d.do(t, "GET", "/v1/tenants/"+tenant+"/fds", "")
	var body struct {
		FDs []struct {
			Rendered string `json:"rendered"`
		} `json:"fds"`
	}
	if code != 200 || json.Unmarshal(data, &body) != nil {
		t.Fatalf("fds %s = %d %s", tenant, code, data)
	}
	out := make([]string, len(body.FDs))
	for i, f := range body.FDs {
		out[i] = f.Rendered
	}
	return fmt.Sprint(out)
}

// TestServiceKillAndRestart proves the multi-tenant service loses nothing
// a client was told was durable: a real dynfdd process hosts three
// tenants, acknowledges batches for each, and is SIGKILLed with
// checkpointing disabled so the per-tenant WALs are the only truth. A
// restart on the same -data-root must recover every tenant independently
// with identical seq, record count, and FD cover. A final SIGTERM must
// exit 0 after draining.
func TestServiceKillAndRestart(t *testing.T) {
	bin := buildDaemon(t)
	dataRoot := filepath.Join(t.TempDir(), "root")

	d := startHTTPDaemon(t, bin,
		"-http", "127.0.0.1:0", "-data-root", dataRoot, "-checkpoint-every", "-1")

	tenants := map[string][]string{
		"alpha": {"zip", "city"},
		"beta":  {"sku", "price", "vendor"},
		"gamma": {"a", "b"},
	}
	for name, cols := range tenants {
		body, _ := json.Marshal(map[string]any{"name": name, "columns": cols})
		if code, data := d.do(t, "POST", "/v1/tenants", string(body)); code != 201 {
			t.Fatalf("create %s = %d %s", name, code, data)
		}
	}
	batches := map[string][]string{
		"alpha": {
			`{"changes":[{"op":"insert","values":["14482","Potsdam"]},{"op":"insert","values":["14482","Golm"]}]}`,
			`{"changes":[{"op":"insert","values":["10115","Berlin"]}]}`,
		},
		"beta": {
			`{"changes":[{"op":"insert","values":["s1","9.99","acme"]},{"op":"insert","values":["s2","9.99","acme"]}]}`,
			`{"changes":[{"op":"update","id":0,"values":["s1","12.50","acme"]}]}`,
			`{"changes":[{"op":"insert","values":["s3","1.00","globex"]}]}`,
		},
		"gamma": {
			`{"changes":[{"op":"insert","values":["1","x"]},{"op":"insert","values":["2","x"]},{"op":"insert","values":["1","x"]}]}`,
			`{"changes":[{"op":"delete","id":2}]}`,
		},
	}
	for name, bs := range batches {
		for i, b := range bs {
			if code, data := d.do(t, "POST", "/v1/tenants/"+name+"/batch", b); code != 200 {
				t.Fatalf("batch %s[%d] = %d %s", name, i, code, data)
			}
		}
	}
	before := map[string]tenantState{}
	for name, bs := range batches {
		st := d.state(t, name)
		if st.Seq != uint64(len(bs)) {
			t.Fatalf("tenant %s pre-kill seq = %d, want %d", name, st.Seq, len(bs))
		}
		before[name] = st
	}

	// kill -9: no handlers, no final checkpoints. Every acknowledged batch
	// must survive in the per-tenant WALs.
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait()

	d2 := startHTTPDaemon(t, bin, "-http", "127.0.0.1:0", "-data-root", dataRoot)
	code, data := d2.do(t, "GET", "/v1/tenants", "")
	if code != 200 {
		t.Fatalf("list after restart = %d %s", code, data)
	}
	if strings.Contains(string(data), "quarantined") {
		t.Fatalf("tenant quarantined after clean WAL recovery: %s", data)
	}
	for name := range tenants {
		after := d2.state(t, name)
		if after != before[name] {
			t.Errorf("tenant %s lost state across kill -9:\n before %+v\n after  %+v", name, before[name], after)
		}
	}
	// The recovered service accepts new writes.
	if code, data := d2.do(t, "POST", "/v1/tenants/alpha/batch",
		`{"changes":[{"op":"insert","values":["60311","Frankfurt"]}]}`); code != 200 {
		t.Fatalf("post-recovery batch = %d %s", code, data)
	}

	// Graceful shutdown: SIGTERM drains, checkpoints every tenant, exits 0.
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- d2.cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("SIGTERM exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		d2.cmd.Process.Kill()
		t.Fatal("daemon did not exit on SIGTERM")
	}

	// Third start resumes from the checkpoints, including the post-recovery
	// batch.
	d3 := startHTTPDaemon(t, bin, "-http", "127.0.0.1:0", "-data-root", dataRoot)
	defer func() {
		d3.cmd.Process.Kill()
		d3.cmd.Wait()
	}()
	st := d3.state(t, "alpha")
	if st.Records != 4 || st.Seq != 3 {
		t.Fatalf("alpha after graceful restart = %+v, want 4 records at seq 3", st)
	}
}

// TestServiceDualMode runs both the HTTP API and the line protocol in one
// process and checks they serve one runtime: the line protocol's tenant
// "line" is listed and readable over HTTP, and a batch posted over HTTP
// shows in the next line-protocol read.
func TestServiceDualMode(t *testing.T) {
	bin := buildDaemon(t)
	dir := t.TempDir()

	cmd := exec.Command(bin,
		"-http", "127.0.0.1:0", "-data-root", filepath.Join(dir, "root"),
		"-listen", "127.0.0.1:0", "-columns", "zip,city")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	httpCh := make(chan string, 1)
	lineCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "http on "); i >= 0 {
				addr := line[i+len("http on "):]
				if j := strings.Index(addr, " "); j >= 0 {
					addr = addr[:j]
				}
				select {
				case httpCh <- addr:
				default:
				}
			}
			if i := strings.Index(line, "serving on "); i >= 0 {
				select {
				case lineCh <- line[i+len("serving on "):]:
				default:
				}
			}
		}
	}()
	var httpAddr, lineAddr string
	for i := 0; i < 2; i++ {
		select {
		case httpAddr = <-httpCh:
		case lineAddr = <-lineCh:
		case <-time.After(10 * time.Second):
			t.Fatalf("daemon did not report both addresses (http=%q line=%q)", httpAddr, lineAddr)
		}
	}

	resp, err := http.Get("http://" + httpAddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	d := &daemon{cmd: cmd, addr: lineAddr}
	resps := d.roundTrip(t,
		`{"op":"insert","values":["14482","Potsdam"]}`,
		`{"op":"insert","values":["14482","Golm"]}`,
		`{"op":"commit"}`,
		`{"op":"fds"}`)
	if !resps[0].OK {
		t.Fatalf("line-protocol commit alongside HTTP failed: %+v", resps[0])
	}

	lineFDs := fmt.Sprint(resps[1].FDs)
	h := &httpDaemon{cmd: cmd, base: "http://" + httpAddr}
	if got := h.renderedFDs(t, "line"); got != lineFDs {
		t.Fatalf("HTTP fds of tenant line = %s, line protocol = %s", got, lineFDs)
	}
	code, data := h.do(t, "GET", "/v1/tenants", "")
	var list struct{ Tenants []tenantState }
	if code != 200 || json.Unmarshal(data, &list) != nil {
		t.Fatalf("list = %d %s", code, data)
	}
	if len(list.Tenants) != 1 || list.Tenants[0].Seq != 1 || list.Tenants[0].Records != 2 {
		t.Fatalf("tenant listing after a line-protocol batch = %s", data)
	}

	if code, data := h.do(t, "POST", "/v1/tenants/line/batch",
		`{"changes":[{"op":"insert","values":["10115","Berlin"]}]}`); code != 200 {
		t.Fatalf("HTTP batch to tenant line = %d %s", code, data)
	}
	resps = d.roundTrip(t, `{"op":"fds"}`, `{"op":"stats"}`)
	if got, want := fmt.Sprint(resps[0].FDs), h.renderedFDs(t, "line"); got != want || got == lineFDs {
		t.Fatalf("line-protocol fds after an HTTP batch = %s, HTTP = %s", got, want)
	}
	if resps[1].Records == nil || *resps[1].Records != 3 {
		t.Fatalf("line-protocol stats after an HTTP batch = %+v", resps[1])
	}
}
