package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dynfd/internal/runtime"
	"dynfd/internal/server"
)

// startLine stands up the -listen front end in-process the way main does:
// a runtime over root, the line tenant opened (or created) from initial
// or columns, and a server on a loopback listener. stop closes the server
// only; the caller decides whether the runtime is closed or abandoned
// like a killed daemon.
func startLine(t *testing.T, root, initial, columns string) (addr string, rt *runtime.Runtime, stop func()) {
	t.Helper()
	rt, err := runtime.Open(runtime.Config{DataRoot: root, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := openLineTenant(rt, initial, columns); err != nil {
		t.Fatal(err)
	}
	srv, err := server.ForTenant(rt, lineTenant, 10)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(l) }()
	return l.Addr().String(), rt, func() { srv.Close(); <-done }
}

func TestSetupAndRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	csv := filepath.Join(dir, "d.csv")
	if err := os.WriteFile(csv, []byte("zip,city\n14482,Potsdam\n10115,Berlin\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	addr, rt, stop := startLine(t, filepath.Join(dir, "root"), csv, "")
	defer func() { stop(); rt.Close() }()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"op":"fds"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "[zip] -> city") {
		t.Errorf("fds response = %s", line)
	}
}

// TestSetupErrors checks the daemon refuses a line-protocol setup it
// cannot serve: no schema for an absent tenant, a missing CSV, -listen
// without -data-root or on a follower, a bad batch size, and a bad listen
// address. Flag misuse exits 2, a setup failure exits 1.
func TestSetupErrors(t *testing.T) {
	t.Parallel()
	rt, err := runtime.Open(runtime.Config{DataRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := openLineTenant(rt, "", ""); err == nil {
		t.Error("missing schema accepted")
	}
	if err := openLineTenant(rt, "/nonexistent.csv", ""); err == nil {
		t.Error("missing CSV accepted")
	}
	if _, err := rt.Info(lineTenant); !errors.Is(err, runtime.ErrNoSuchTenant) {
		t.Errorf("failed setups left a tenant behind: %v", err)
	}

	bin := buildDaemon(t)
	root := filepath.Join(t.TempDir(), "root")
	for _, tc := range []struct {
		name string
		args []string
		code int
		msg  string
	}{
		{"absent tenant without schema", []string{"-listen", "127.0.0.1:0", "-data-root", root}, 1, "pass -columns or -initial"},
		{"missing CSV", []string{"-listen", "127.0.0.1:0", "-data-root", root, "-initial", "/nonexistent.csv"}, 1, "nonexistent.csv"},
		{"no data root", []string{"-listen", "127.0.0.1:0", "-columns", "a,b"}, 2, "require -data-root"},
		{"follower", []string{"-http", "127.0.0.1:0", "-listen", "127.0.0.1:0", "-data-root", root, "-columns", "a,b",
			"-replicate-from", "http://127.0.0.1:1"}, 2, "cannot run on a follower"},
		{"batch size 0", []string{"-listen", "127.0.0.1:0", "-data-root", root, "-columns", "a,b", "-batch", "0"}, 1, "batch size"},
		{"bad listen address", []string{"-listen", "notanaddress", "-data-root", root, "-columns", "a,b"}, 1, "notanaddress"},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != tc.code {
			t.Errorf("%s: exit %v, want code %d\n%s", tc.name, err, tc.code, out)
			continue
		}
		if !strings.Contains(string(out), tc.msg) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.msg, out)
		}
	}
}

// TestSetupDurableResume covers the in-process durable path: the line
// tenant created from -initial under a data root, batches committed over
// the wire, the runtime abandoned without Close (kill -9 equivalent: no
// final checkpoint), and a second start on the root as that crash left it
// resuming with identical FDs — including that the -initial rows are only
// bootstrapped the first time. The abandoned runtime keeps the root's
// lock, so the second start runs on a copy of the root.
func TestSetupDurableResume(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	csv := filepath.Join(dir, "d.csv")
	if err := os.WriteFile(csv, []byte("zip,city\n14482,Potsdam\n10115,Berlin\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(dir, "root")

	addr, rt, stop := startLine(t, root, csv, "")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(conn)
	fmt.Fprintln(conn, `{"op":"insert","values":["14467","Potsdam"]}`)
	fmt.Fprintln(conn, `{"op":"commit"}`)
	if line, err := rd.ReadString('\n'); err != nil || !strings.Contains(line, `"ok":true`) {
		t.Fatalf("commit: %q %v", line, err)
	}
	fmt.Fprintln(conn, `{"op":"fds"}`)
	fdsBefore, err := rd.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	stop()
	// No rt.Close() until the end: the daemon "died" without its final
	// checkpoint.
	defer rt.Close()
	crashed := filepath.Join(dir, "crashed")
	if err := os.CopyFS(crashed, os.DirFS(root)); err != nil {
		t.Fatal(err)
	}

	addr2, rt2, stop2 := startLine(t, crashed, csv, "")
	defer func() { stop2(); rt2.Close() }()
	conn2, err := net.Dial("tcp", addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	rd2 := bufio.NewReader(conn2)
	fmt.Fprintln(conn2, `{"op":"fds"}`)
	fdsAfter, err := rd2.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if fdsAfter != fdsBefore {
		t.Fatalf("FDs diverged across restart:\n before %s after  %s", fdsBefore, fdsAfter)
	}
	fmt.Fprintln(conn2, `{"op":"stats"}`)
	stats, err := rd2.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, `"records":3`) {
		t.Fatalf("stats after resume = %s", stats)
	}
}

// buildDaemon compiles dynfdd into a temporary directory; subprocess
// tests skip in -short mode.
func buildDaemon(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "dynfdd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Skipf("cannot build dynfdd: %v\n%s", err, out)
	}
	return bin
}

// daemon is one dynfdd subprocess under test.
type daemon struct {
	cmd  *exec.Cmd
	addr string
}

// startDaemon launches bin and parses the line-protocol listen address
// from its log.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	return startAnnounced(t, bin, "serving on ", args...)
}

// startAnnounced launches bin and returns as soon as its log announces an
// address after marker.
func startAnnounced(t *testing.T, bin, marker string, args ...string) *daemon {
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
			if i := strings.Index(line, marker); i >= 0 {
				select {
				case addrCh <- line[i+len(marker):]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &daemon{cmd: cmd, addr: addr}
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("daemon never reported its listen address")
		return nil
	}
}

type wireResp struct {
	OK      bool     `json:"ok"`
	Error   string   `json:"error"`
	FDs     []string `json:"fds"`
	Records *int     `json:"records"`
}

func (d *daemon) roundTrip(t *testing.T, lines ...string) []wireResp {
	t.Helper()
	conn, err := net.Dial("tcp", d.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	var out []wireResp
	for _, line := range lines {
		if _, err := fmt.Fprintln(conn, line); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(line, `"commit"`) || strings.Contains(line, `"fds"`) || strings.Contains(line, `"stats"`) {
			raw, err := rd.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			var r wireResp
			if err := json.Unmarshal([]byte(raw), &r); err != nil {
				t.Fatalf("bad response %q: %v", raw, err)
			}
			out = append(out, r)
		}
	}
	return out
}

// TestDaemonKillAndRestart is the end-to-end durability check of the line
// protocol: a real dynfdd process serving -listen over a -data-root, with
// checkpointing disabled, is SIGKILLed right after acknowledging commits,
// and a restart on the same root must come back with zero lost batches.
// It then exercises graceful shutdown: SIGTERM exits 0 after a final
// checkpoint, and a third start resumes from the checkpoint alone.
func TestDaemonKillAndRestart(t *testing.T) {
	bin := buildDaemon(t)
	dataRoot := filepath.Join(t.TempDir(), "root")

	d := startDaemon(t, bin, "-listen", "127.0.0.1:0", "-columns", "zip,city", "-data-root", dataRoot, "-checkpoint-every", "-1")
	resps := d.roundTrip(t,
		`{"op":"insert","values":["14482","Potsdam"]}`,
		`{"op":"insert","values":["14482","Golm"]}`,
		`{"op":"commit"}`,
		`{"op":"insert","values":["10115","Berlin"]}`,
		`{"op":"commit"}`,
		`{"op":"fds"}`,
		`{"op":"stats"}`,
	)
	for i, r := range resps[:2] {
		if !r.OK {
			t.Fatalf("commit %d not acked: %+v", i, r)
		}
	}
	wantFDs := fmt.Sprint(resps[2].FDs)
	if resps[3].Records == nil || *resps[3].Records != 3 {
		t.Fatalf("pre-kill stats = %+v", resps[3])
	}

	// kill -9: no handlers run, no final checkpoint — the WAL is all.
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait()

	d2 := startDaemon(t, bin, "-listen", "127.0.0.1:0", "-data-root", dataRoot)
	resps2 := d2.roundTrip(t, `{"op":"fds"}`, `{"op":"stats"}`)
	if got := fmt.Sprint(resps2[0].FDs); got != wantFDs {
		t.Fatalf("FDs lost across kill -9:\n got %s\nwant %s", got, wantFDs)
	}
	if resps2[1].Records == nil || *resps2[1].Records != 3 {
		t.Fatalf("records lost across kill -9: %+v", resps2[1])
	}

	// Graceful shutdown: SIGTERM drains and exits 0.
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
	case <-time.After(10 * time.Second):
		d2.cmd.Process.Kill()
		t.Fatal("daemon did not exit on SIGTERM")
	}

	// After the graceful exit the state lives in the final checkpoint;
	// a third start must resume identically.
	d3 := startDaemon(t, bin, "-listen", "127.0.0.1:0", "-data-root", dataRoot)
	defer func() {
		d3.cmd.Process.Kill()
		d3.cmd.Wait()
	}()
	resps3 := d3.roundTrip(t, `{"op":"fds"}`)
	if got := fmt.Sprint(resps3[0].FDs); got != wantFDs {
		t.Fatalf("FDs lost across graceful restart:\n got %s\nwant %s", got, wantFDs)
	}
}

// TestDaemonSIGTERMAtAnnounce sends SIGTERM the moment the daemon
// announces its first address, 20 times over, and requires a graceful
// exit 0 every time: the shutdown handler must be registered before any
// listener opens, not after every server is up. The daemon runs both
// front ends, so the HTTP announcement comes while the line protocol is
// still being set up.
func TestDaemonSIGTERMAtAnnounce(t *testing.T) {
	bin := buildDaemon(t)
	for i := 0; i < 20; i++ {
		root := filepath.Join(t.TempDir(), "root")
		d := startAnnounced(t, bin, "http on ",
			"-http", "127.0.0.1:0", "-data-root", root,
			"-listen", "127.0.0.1:0", "-columns", "zip,city")
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		exited := make(chan error, 1)
		go func() { exited <- d.cmd.Wait() }()
		select {
		case err := <-exited:
			if err != nil {
				t.Fatalf("start %d: SIGTERM at announce: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			t.Fatalf("start %d: daemon did not exit on SIGTERM", i)
		}
	}
}

// TestLegacyWorkersFlag: command lines written for builds with a worker
// count keep starting. -workers is parsed and ignored, and the daemon
// serves the FDs it always did.
func TestLegacyWorkersFlag(t *testing.T) {
	bin := buildDaemon(t)
	d := startDaemon(t, bin, "-workers", "4", "-listen", "127.0.0.1:0",
		"-data-root", filepath.Join(t.TempDir(), "root"), "-columns", "zip,city")
	defer func() { d.cmd.Process.Kill(); d.cmd.Wait() }()
	resp := d.roundTrip(t,
		`{"op":"insert","values":["14482","Potsdam"]}`,
		`{"op":"insert","values":["10115","Berlin"]}`,
		`{"op":"commit"}`,
		`{"op":"fds"}`)
	if len(resp) != 2 || !resp[0].OK {
		t.Fatalf("responses = %+v", resp)
	}
	got := strings.Join(resp[1].FDs, "; ")
	if len(resp[1].FDs) != 2 || !strings.Contains(got, "[zip] -> city") || !strings.Contains(got, "[city] -> zip") {
		t.Errorf("fds = %s, want [zip] -> city and [city] -> zip", got)
	}
}
