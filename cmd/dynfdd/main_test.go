package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestSetupAndRoundTrip(t *testing.T) {
	t.Parallel()
	csv := filepath.Join(t.TempDir(), "d.csv")
	if err := os.WriteFile(csv, []byte("zip,city\n14482,Potsdam\n10115,Berlin\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, l, shutdown, err := setup("127.0.0.1:0", csv, "", "", 10, 2, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(l) }()
	defer func() { srv.Close(); <-done; shutdown() }()

	conn, err := net.Dial("tcp", l.Addr().String())
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

func TestSetupErrors(t *testing.T) {
	t.Parallel()
	if _, _, _, err := setup("127.0.0.1:0", "", "", "", 10, 0, 0, 0, 0); err == nil {
		t.Error("missing schema accepted")
	}
	if _, _, _, err := setup("127.0.0.1:0", "/nonexistent.csv", "", "", 10, 0, 0, 0, 0); err == nil {
		t.Error("missing CSV accepted")
	}
	if _, _, _, err := setup("127.0.0.1:0", "", "a,b", "", 0, 0, 0, 0, 0); err == nil {
		t.Error("batch size 0 accepted")
	}
	if _, _, _, err := setup("notanaddress", "", "a,b", "", 10, 0, 0, 0, 0); err == nil {
		t.Error("bad listen address accepted")
	}
}

// TestSetupDurableResume covers the in-process durable path: a daemon
// setup with -data-dir, batches committed over the wire, the server
// abandoned without shutdown (kill -9 equivalent), and a second setup on
// the same directory resuming with identical FDs — including that the
// -initial rows are only bootstrapped the first time.
func TestSetupDurableResume(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	csv := filepath.Join(dir, "d.csv")
	if err := os.WriteFile(csv, []byte("zip,city\n14482,Potsdam\n10115,Berlin\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(dir, "state")

	srv, l, _, err := setup("127.0.0.1:0", csv, "", dataDir, 10, 0, -1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(l) }()
	conn, err := net.Dial("tcp", l.Addr().String())
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
	srv.Close()
	<-done
	// No shutdown(): the daemon "died" without its final checkpoint.

	srv2, l2, shutdown2, err := setup("127.0.0.1:0", csv, "", dataDir, 10, 0, -1, 0, 0)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	done2 := make(chan struct{})
	go func() { defer close(done2); _ = srv2.Serve(l2) }()
	defer func() { srv2.Close(); <-done2; shutdown2() }()
	conn2, err := net.Dial("tcp", l2.Addr().String())
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

// TestDaemonKillAndRestart is the end-to-end durability check: a real
// dynfdd process is SIGKILLed right after acknowledging commits, and a
// restart on the same -data-dir must come back with zero lost batches.
// It then exercises graceful shutdown: SIGTERM exits 0 after a final
// checkpoint, and a third start resumes from the checkpoint alone.
func TestDaemonKillAndRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "dynfdd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Skipf("cannot build dynfdd: %v\n%s", err, out)
	}
	dataDir := filepath.Join(t.TempDir(), "state")

	d := startDaemon(t, bin, "-listen", "127.0.0.1:0", "-columns", "zip,city", "-data-dir", dataDir, "-checkpoint-every", "-1")
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

	d2 := startDaemon(t, bin, "-listen", "127.0.0.1:0", "-data-dir", dataDir)
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
	d3 := startDaemon(t, bin, "-listen", "127.0.0.1:0", "-data-dir", dataDir)
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
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "dynfdd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Skipf("cannot build dynfdd: %v\n%s", err, out)
	}
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
