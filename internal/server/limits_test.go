package server

import (
	"bufio"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dynfd/internal/runtime"
)

// startLimitedServer serves a 2-column tenant of a runtime under custom
// limits.
func startLimitedServer(t *testing.T, limits runtime.Limits, batchSize int) string {
	t.Helper()
	addr, _ := startTenant(t, runtime.Config{Limits: limits}, []string{"zip", "city"}, nil, batchSize)
	return addr
}

// TestServerIdleTimeout: a connection that goes quiet must be closed once
// the idle deadline passes, freeing its handler goroutine.
func TestServerIdleTimeout(t *testing.T) {
	t.Parallel()
	limits := runtime.DefaultLimits()
	limits.IdleTimeout = 60 * time.Millisecond
	addr := startLimitedServer(t, limits, 100)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A live connection keeps working...
	c := &client{t: t, conn: conn, rd: bufio.NewReader(conn)}
	c.send(`{"op":"fds"}`)
	if r := c.recv(); !r.OK {
		t.Fatalf("fds = %+v", r)
	}
	// ...but after going idle, the server hangs up: the next read
	// observes EOF (or a reset) instead of blocking forever.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	_, err = conn.Read(buf)
	if err == nil {
		t.Fatal("read succeeded on a connection that should be closed")
	}
	if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Fatal("server never closed the idle connection")
	}
}

// TestServerRejectsOverlongLine: one oversized request line is answered
// with an error, and the connection is then closed because its framing is
// unrecoverable.
func TestServerRejectsOverlongLine(t *testing.T) {
	t.Parallel()
	limits := runtime.DefaultLimits()
	limits.MaxLineBytes = 256
	addr := startLimitedServer(t, limits, 100)
	c := dial(t, addr)
	c.send(`{"op":"insert","values":["` + strings.Repeat("x", 1024) + `","y"]}`)
	r := c.recv()
	if r.OK || !strings.Contains(r.Error, "exceeds") {
		t.Fatalf("overlong line response = %+v", r)
	}
	// The server hangs up after answering; depending on timing this reads
	// as EOF or a reset, but never as a timeout.
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err := c.rd.ReadByte()
	if err == nil {
		t.Fatal("connection still open after overlong line")
	}
	if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Fatal("server never closed the connection")
	}
}

// TestServerPendingCap: staging beyond MaxPending is rejected without
// disturbing the already-staged changes.
func TestServerPendingCap(t *testing.T) {
	t.Parallel()
	limits := runtime.DefaultLimits()
	limits.MaxPending = 3
	addr := startLimitedServer(t, limits, 100) // batch size above the cap
	c := dial(t, addr)
	for i := 0; i < 3; i++ {
		c.send(`{"op":"insert","values":["1","a"]}`) // staged silently
	}
	c.send(`{"op":"insert","values":["4","d"]}`)
	r := c.recv()
	if r.OK || !strings.Contains(r.Error, "pending") {
		t.Fatalf("over-cap staging response = %+v", r)
	}
	// The three staged changes are intact and commit cleanly.
	c.send(`{"op":"commit"}`)
	if r := c.recv(); !r.OK || len(r.InsertedIDs) != 3 {
		t.Fatalf("commit after cap = %+v", r)
	}
}

// TestServerOnDurableBackend checks a committed batch is fsynced to the
// tenant's WAL before the ack, so a "kill" (abandoning the runtime without
// Close, hence without a final checkpoint) loses nothing.
func TestServerOnDurableBackend(t *testing.T) {
	t.Parallel()
	addr, rt := startTenant(t, runtime.Config{CheckpointEvery: -1}, []string{"zip", "city"}, nil, 100)

	c := dial(t, addr)
	c.send(`{"op":"insert","values":["14482","Potsdam"]}`)
	c.send(`{"op":"insert","values":["10115","Berlin"]}`)
	c.send(`{"op":"commit"}`)
	if r := c.recv(); !r.OK {
		t.Fatalf("commit = %+v", r)
	}
	// The ack came after the WAL fsync that covers the batch.
	m, err := rt.TenantMetrics("line")
	if err != nil {
		t.Fatal(err)
	}
	if m.Seq != 1 || m.WALSyncs < 1 {
		t.Fatalf("acked batch at seq %d after %d WAL syncs, want seq 1 and a sync", m.Seq, m.WALSyncs)
	}

	// Crash: recover a copy of the data root, taken while the runtime
	// still holds it, as a fresh process would find it after a kill -9 —
	// no final checkpoint, only the WAL — and the acked batch must be
	// there.
	crashed := filepath.Join(t.TempDir(), "root")
	if err := os.CopyFS(crashed, os.DirFS(rt.DataRoot())); err != nil {
		t.Fatal(err)
	}
	rec, err := runtime.Open(runtime.Config{DataRoot: crashed})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	info, err := rec.Info("line")
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 1 || info.Records != 2 || info.Quarantined != "" {
		t.Fatalf("recovered %+v, want seq 1 with 2 records", info)
	}
}
