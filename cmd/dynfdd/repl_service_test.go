package main

import (
	"bufio"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// replDaemon is a dynfdd subprocess running as a replication primary: the
// HTTP API plus the -repl-addr endpoint.
type replDaemon struct {
	*httpDaemon
	replBase string // http://host:port of the replication listener
}

// startReplPrimary launches bin with -repl-addr and parses both listen
// addresses from the startup log.
func startReplPrimary(t *testing.T, bin string, args ...string) *replDaemon {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	httpCh := make(chan string, 1)
	replCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			for marker, ch := range map[string]chan string{"http on ": httpCh, "replication on ": replCh} {
				if i := strings.Index(line, marker); i >= 0 {
					addr := line[i+len(marker):]
					if j := strings.Index(addr, " "); j >= 0 {
						addr = addr[:j]
					}
					select {
					case ch <- addr:
					default:
					}
				}
			}
		}
	}()
	d := &replDaemon{httpDaemon: &httpDaemon{cmd: cmd}}
	for _, w := range []struct {
		ch   chan string
		dst  *string
		what string
	}{
		{httpCh, &d.base, "HTTP"},
		{replCh, &d.replBase, "replication"},
	} {
		select {
		case addr := <-w.ch:
			*w.dst = "http://" + addr
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("daemon never reported its %s address", w.what)
		}
	}
	return d
}

// fdsPayload extracts the "fds" array of a read response, dropping the
// per-node staleness fields so primary and follower payloads compare.
func fdsPayload(t *testing.T, data []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("bad fds body %s: %v", data, err)
	}
	out, err := json.Marshal(m["fds"])
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// waitReplica polls the follower daemon until tenant t0 reports seq want,
// returning the fds payload observed there.
func waitReplica(t *testing.T, d *httpDaemon, want uint64) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code, data := d.do(t, "GET", "/v1/tenants/t0", ""); code == 200 {
			var st tenantState
			if err := json.Unmarshal(data, &st); err == nil && st.Seq == want {
				code, fds := d.do(t, "GET", "/v1/tenants/t0/fds", "")
				if code != 200 {
					t.Fatalf("follower fds = %d %s", code, fds)
				}
				return fdsPayload(t, fds)
			}
		}
		if time.Now().After(deadline) {
			code, data := d.do(t, "GET", "/v1/tenants/t0", "")
			t.Fatalf("follower never reached seq %d; last: %d %s", want, code, data)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServiceReplication drives the full deployment story with real
// processes: a primary with -repl-addr, a follower with -replicate-from
// that mirrors the tenant and serves identical FDs, a kill -9 of the
// follower mid-stream, and a restart over the same data root that resumes
// replication instead of starting over. Both daemons must shut down
// cleanly on SIGTERM.
func TestServiceReplication(t *testing.T) {
	bin := buildDaemon(t)

	primary := startReplPrimary(t, bin,
		"-http", "127.0.0.1:0", "-data-root", filepath.Join(t.TempDir(), "primary"),
		"-repl-addr", "127.0.0.1:0")
	defer func() {
		primary.cmd.Process.Kill()
		primary.cmd.Wait()
	}()

	if code, data := primary.do(t, "POST", "/v1/tenants",
		`{"name":"t0","columns":["zip","city"],"rows":[["14482","Potsdam"],["10115","Berlin"]]}`); code != 201 {
		t.Fatalf("create t0 = %d %s", code, data)
	}
	batches := []string{
		`{"changes":[{"op":"insert","values":["14482","Golm"]},{"op":"insert","values":["60311","Frankfurt"]}]}`,
		`{"changes":[{"op":"update","id":0,"values":["14482","Babelsberg"]}]}`,
		`{"changes":[{"op":"delete","id":1}]}`,
	}
	for i, b := range batches {
		if code, data := primary.do(t, "POST", "/v1/tenants/t0/batch", b); code != 200 {
			t.Fatalf("batch %d = %d %s", i, code, data)
		}
	}
	pState := primary.state(t, "t0")

	followerRoot := filepath.Join(t.TempDir(), "follower")
	follower := startHTTPDaemon(t, bin,
		"-http", "127.0.0.1:0", "-data-root", followerRoot,
		"-replicate-from", primary.replBase)
	defer func() {
		follower.cmd.Process.Kill()
		follower.cmd.Wait()
	}()

	fFDs := waitReplica(t, follower, pState.Seq)
	if pFDs := fdsPayload(t, []byte(pState.FDs)); fFDs != pFDs {
		t.Fatalf("fds diverge:\nprimary  %s\nfollower %s", pFDs, fFDs)
	}
	fState := follower.state(t, "t0")
	if fState.Records != pState.Records {
		t.Fatalf("follower records %d, primary %d", fState.Records, pState.Records)
	}

	// Writes must be refused at the follower.
	if code, data := follower.do(t, "POST", "/v1/tenants/t0/batch", batches[0]); code != 403 {
		t.Fatalf("follower write = %d %s, want 403", code, data)
	}

	// kill -9 the follower mid-deployment; the primary keeps committing.
	if err := follower.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	follower.cmd.Wait()
	postKill := []string{
		`{"changes":[{"op":"insert","values":["50667","Cologne"]},{"op":"insert","values":["50667","Deutz"]}]}`,
		`{"changes":[{"op":"insert","values":["80331","Munich"]}]}`,
	}
	for i, b := range postKill {
		if code, data := primary.do(t, "POST", "/v1/tenants/t0/batch", b); code != 200 {
			t.Fatalf("post-kill batch %d = %d %s", i, code, data)
		}
	}
	pState = primary.state(t, "t0")

	// Restart over the same data root: replication resumes from the
	// recovered sequence and converges on the new primary state.
	follower2 := startHTTPDaemon(t, bin,
		"-http", "127.0.0.1:0", "-data-root", followerRoot,
		"-replicate-from", primary.replBase)
	defer func() {
		follower2.cmd.Process.Kill()
		follower2.cmd.Wait()
	}()
	fFDs = waitReplica(t, follower2, pState.Seq)
	if pFDs := fdsPayload(t, []byte(pState.FDs)); fFDs != pFDs {
		t.Fatalf("fds diverge after follower restart:\nprimary  %s\nfollower %s", pFDs, fFDs)
	}

	// Both roles shut down cleanly.
	for _, d := range []*httpDaemon{follower2, primary.httpDaemon} {
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		exited := make(chan error, 1)
		go func() { exited <- d.cmd.Wait() }()
		select {
		case err := <-exited:
			if err != nil {
				t.Fatalf("SIGTERM exit: %v", err)
			}
		case <-time.After(15 * time.Second):
			d.cmd.Process.Kill()
			t.Fatal("daemon did not exit on SIGTERM")
		}
	}
}
