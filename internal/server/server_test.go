package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"

	"dynfd/internal/runtime"
)

// client is a small test helper around one protocol connection.
type client struct {
	t    *testing.T
	conn net.Conn
	rd   *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{t: t, conn: conn, rd: bufio.NewReader(conn)}
}

func (c *client) send(line string) {
	c.t.Helper()
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		c.t.Fatal(err)
	}
}

func (c *client) recv() response {
	c.t.Helper()
	line, err := c.rd.ReadBytes('\n')
	if err != nil {
		c.t.Fatal(err)
	}
	var r response
	if err := json.Unmarshal(line, &r); err != nil {
		c.t.Fatalf("bad response %q: %v", line, err)
	}
	return r
}

var columns = []string{"firstname", "lastname", "zip", "city"}

// startServer serves a fresh runtime tenant, bootstrapped from initial,
// over the line protocol.
func startServer(t *testing.T, initial [][]string, batchSize int) string {
	t.Helper()
	addr, _ := startTenant(t, runtime.Config{}, columns, initial, batchSize)
	return addr
}

// startTenant opens a runtime under cfg over a temporary data root,
// creates the tenant "line" and serves it on a loopback listener.
func startTenant(t *testing.T, cfg runtime.Config, cols []string, initial [][]string, batchSize int) (string, *runtime.Runtime) {
	t.Helper()
	cfg.DataRoot = t.TempDir()
	rt, err := runtime.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Create("line", cols, initial); err != nil {
		t.Fatal(err)
	}
	srv, err := ForTenant(rt, "line", batchSize)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(l); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
		rt.Close()
	})
	return l.Addr().String(), rt
}

var paperRows = [][]string{
	{"Max", "Jones", "14482", "Potsdam"},
	{"Max", "Miller", "14482", "Potsdam"},
	{"Max", "Jones", "10115", "Berlin"},
	{"Anna", "Scott", "13591", "Berlin"},
}

func TestServerPaperScenario(t *testing.T) {
	t.Parallel()
	addr := startServer(t, paperRows, 100)
	c := dial(t, addr)

	c.send(`{"op":"fds"}`)
	r := c.recv()
	if !r.OK || len(r.FDs) != 5 {
		t.Fatalf("fds = %+v", r)
	}

	// The paper batch: delete tuple 3 (id 2), insert tuples 5 and 6.
	c.send(`{"op":"delete","id":2}`)
	c.send(`{"op":"insert","values":["Marie","Scott","14467","Potsdam"]}`)
	c.send(`{"op":"insert","values":["Marie","Gray","14469","Potsdam"]}`)
	c.send(`{"op":"commit"}`)
	r = c.recv()
	if !r.OK {
		t.Fatalf("commit failed: %+v", r)
	}
	if len(r.InsertedIDs) != 2 {
		t.Errorf("inserted ids = %v", r.InsertedIDs)
	}
	wantAdded := "[[lastname, city] -> firstname [firstname, lastname] -> zip [firstname] -> city]"
	wantRemoved := "[[lastname] -> firstname [firstname, city] -> zip]"
	if fmt.Sprint(r.Added) != wantAdded || fmt.Sprint(r.Removed) != wantRemoved {
		t.Errorf("diff = %+v, want added %s removed %s", r, wantAdded, wantRemoved)
	}

	c.send(`{"op":"fds"}`)
	r = c.recv()
	if len(r.FDs) != 6 {
		t.Errorf("after batch: %d FDs, want 6", len(r.FDs))
	}

	c.send(`{"op":"stats"}`)
	r = c.recv()
	if r.Records == nil || *r.Records != 5 || r.Batches == nil || *r.Batches != 1 {
		t.Errorf("stats = %+v", r)
	}
}

func TestServerAutoCommit(t *testing.T) {
	t.Parallel()
	addr := startServer(t, nil, 2)
	c := dial(t, addr)
	c.send(`{"op":"insert","values":["a","b","c","d"]}`)
	c.send(`{"op":"insert","values":["a","b","c","e"]}`) // second insert triggers the auto-commit
	r := c.recv()
	if !r.OK || len(r.InsertedIDs) != 2 {
		t.Fatalf("auto-commit = %+v", r)
	}
}

func TestServerRejectsBadBatchesAtomically(t *testing.T) {
	t.Parallel()
	addr := startServer(t, paperRows, 100)
	c := dial(t, addr)
	// A batch with one good insert and one dangling delete must be
	// rejected wholesale.
	c.send(`{"op":"insert","values":["X","Y","Z","W"]}`)
	c.send(`{"op":"delete","id":999}`)
	c.send(`{"op":"commit"}`)
	r := c.recv()
	if r.OK || r.Error == "" {
		t.Fatalf("bad batch accepted: %+v", r)
	}
	// The server must still be intact: the good insert was discarded too.
	c.send(`{"op":"stats"}`)
	r = c.recv()
	if r.Records == nil || *r.Records != 4 {
		t.Errorf("stats after rejected batch = %+v", r)
	}
}

func TestServerProtocolErrors(t *testing.T) {
	t.Parallel()
	addr := startServer(t, nil, 10)
	c := dial(t, addr)
	c.send(`not json`)
	if r := c.recv(); r.OK || r.Error == "" {
		t.Errorf("bad json accepted: %+v", r)
	}
	c.send(`{"op":"teleport"}`)
	if r := c.recv(); r.OK || r.Error == "" {
		t.Errorf("unknown op accepted: %+v", r)
	}
	c.send(`{"op":"delete"}`)
	if r := c.recv(); r.OK || r.Error == "" {
		t.Errorf("delete without id accepted: %+v", r)
	}
	// An empty commit is a no-op but succeeds.
	c.send(`{"op":"commit"}`)
	if r := c.recv(); !r.OK {
		t.Errorf("empty commit failed: %+v", r)
	}
}

// TestServerBareCommitWritesNothing: a commit with nothing staged answers
// OK without reaching the runtime, so it neither takes a sequence number
// nor costs a WAL fsync (nor, on a primary, a replication frame).
func TestServerBareCommitWritesNothing(t *testing.T) {
	t.Parallel()
	addr, rt := startTenant(t, runtime.Config{}, columns, paperRows, 10)
	state := func() (uint64, int) {
		t.Helper()
		info, err := rt.Info("line")
		if err != nil {
			t.Fatal(err)
		}
		m, err := rt.TenantMetrics("line")
		if err != nil {
			t.Fatal(err)
		}
		return info.Seq, m.WALSyncs
	}
	seq0, syncs0 := state()
	c := dial(t, addr)
	for i := 0; i < 3; i++ {
		c.send(`{"op":"commit"}`)
		if r := c.recv(); !r.OK || r.Error != "" || len(r.InsertedIDs) != 0 {
			t.Fatalf("bare commit %d = %+v", i, r)
		}
	}
	if seq, syncs := state(); seq != seq0 || syncs != syncs0 {
		t.Fatalf("bare commits moved seq %d -> %d and WAL syncs %d -> %d", seq0, seq, syncs0, syncs)
	}
	// A commit with staged changes still writes.
	c.send(`{"op":"insert","values":["a","b","c","d"]}`)
	c.send(`{"op":"commit"}`)
	if r := c.recv(); !r.OK {
		t.Fatalf("commit = %+v", r)
	}
	if seq, syncs := state(); seq != seq0+1 || syncs <= syncs0 {
		t.Fatalf("commit left seq %d -> %d and WAL syncs %d -> %d", seq0, seq, syncs0, syncs)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	t.Parallel()
	addr := startServer(t, nil, 1000)
	const clients = 4
	const perClient = 25
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			rd := bufio.NewReader(conn)
			for j := 0; j < perClient; j++ {
				fmt.Fprintf(conn, `{"op":"insert","values":["c%d","r%d","z","w"]}`+"\n", i, j)
			}
			fmt.Fprintln(conn, `{"op":"commit"}`)
			line, err := rd.ReadBytes('\n')
			if err != nil {
				t.Error(err)
				return
			}
			var r response
			if err := json.Unmarshal(line, &r); err != nil || !r.OK {
				t.Errorf("client %d: %s", i, line)
			}
		}(i)
	}
	wg.Wait()
	c := dial(t, addr)
	c.send(`{"op":"stats"}`)
	r := c.recv()
	if r.Records == nil || *r.Records != clients*perClient {
		t.Errorf("records = %+v, want %d", r.Records, clients*perClient)
	}
}

func TestServerConstruction(t *testing.T) {
	t.Parallel()
	rt, err := runtime.Open(runtime.Config{DataRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.Create("line", []string{"a"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ForTenant(rt, "line", 0); err == nil {
		t.Error("batch size 0 accepted")
	}
	if _, err := ForTenant(rt, "absent", 10); err == nil {
		t.Error("unknown tenant accepted")
	}
	// Schema and bootstrap rows are the runtime's to check.
	if err := rt.Create("dup", []string{"a", "a"}, nil); err == nil {
		t.Error("duplicate columns accepted")
	}
	if err := rt.Create("ragged", []string{"a"}, [][]string{{"1", "2"}}); err == nil {
		t.Error("ragged initial rows accepted")
	}
}
