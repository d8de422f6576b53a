// Package server serves one runtime tenant over a line-oriented TCP
// protocol, so the FDs of a relation can be maintained as a long-running
// service fed by a live change stream — the deployment scenario the paper
// sketches in Figure 1, where DynFD monitors the change feed of a database.
// The package is a codec only: the tenant's engine, durability, admission
// control, group commit and quarantine all belong to internal/runtime, so
// the tenant is equally readable and writable over the HTTP API.
//
// Protocol: every request is one JSON object per line.
//
//	{"op":"insert","values":["14482","Potsdam"]}   stage an insert
//	{"op":"delete","id":3}                         stage a delete
//	{"op":"update","id":4,"values":[...]}          stage an update
//	{"op":"commit"}                                apply staged changes as one batch
//	{"op":"fds"}                                   list current minimal FDs
//	{"op":"stats"}                                 record and batch counters
//
// Staged changes also auto-commit when they reach the server's batch size.
// Every commit/fds/stats request receives exactly one JSON response line;
// staging requests are acknowledged only on error. A commit hands the
// connection's staged changes to runtime.Apply as one batch, so batches
// from concurrent connections and HTTP clients serialize on the tenant and
// share group-commit fsyncs; a commit with nothing staged answers
// {"ok":true} and writes nothing. fds and stats read the tenant's last
// published snapshot, and stats.batches counts the batches acknowledged
// since the runtime opened the tenant.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dynfd"
	"dynfd/internal/runtime"
)

// Server serves the line protocol for one runtime tenant.
type Server struct {
	rt        *runtime.Runtime
	tenant    string
	batchSize int
	limits    runtime.Limits

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	closed   bool
	wg       sync.WaitGroup
}

// ForTenant creates a server for an existing tenant of rt; batchSize bounds
// the auto-commit batch. Connections live under rt's Limits.
func ForTenant(rt *runtime.Runtime, tenant string, batchSize int) (*Server, error) {
	if batchSize <= 0 {
		return nil, fmt.Errorf("server: batch size must be positive")
	}
	if _, err := rt.Info(tenant); err != nil {
		return nil, err
	}
	return &Server{
		rt:        rt,
		tenant:    tenant,
		batchSize: batchSize,
		limits:    rt.Limits(),
		conns:     make(map[net.Conn]bool),
	}, nil
}

// Serve accepts connections until the listener is closed (via Close).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("server: already closed")
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting, closes all connections, and waits for handlers.
// The runtime stays open; its owner closes it.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// request is the wire format of one protocol line.
type request struct {
	Op     string   `json:"op"`
	ID     *int64   `json:"id,omitempty"`
	Values []string `json:"values,omitempty"`
}

// response is the wire format of one reply line.
type response struct {
	OK          bool     `json:"ok"`
	Error       string   `json:"error,omitempty"`
	InsertedIDs []int64  `json:"inserted_ids,omitempty"`
	Added       []string `json:"added,omitempty"`
	Removed     []string `json:"removed,omitempty"`
	FDs         []string `json:"fds,omitempty"`
	Records     *int     `json:"records,omitempty"`
	Batches     *int     `json:"batches,omitempty"`
}

// deadlineConn arms a fresh read/write deadline before every operation,
// so an idle or stalled peer cannot pin a handler goroutine forever.
type deadlineConn struct {
	net.Conn
	timeout time.Duration
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	if c.timeout > 0 {
		if err := c.Conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return 0, err
		}
	}
	return c.Conn.Read(p)
}

func (c *deadlineConn) Write(p []byte) (int, error) {
	if c.timeout > 0 {
		if err := c.Conn.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
			return 0, err
		}
	}
	return c.Conn.Write(p)
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	dc := &deadlineConn{Conn: conn, timeout: s.limits.IdleTimeout}
	sc := bufio.NewScanner(dc)
	maxLine := s.limits.MaxLineBytes
	if maxLine <= 0 {
		maxLine = bufio.MaxScanTokenSize
	}
	sc.Buffer(make([]byte, 0, min(1<<16, maxLine)), maxLine)
	enc := json.NewEncoder(dc)
	enc.SetEscapeHTML(false) // keep "->" readable in FD renderings
	var pending []dynfd.Change
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		resp, ok := s.do(line, &pending)
		if ok && enc.Encode(resp) != nil {
			return
		}
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		// The line's framing is lost: answer once, then drop the
		// connection rather than misparse the rest of the stream.
		enc.Encode(response{Error: fmt.Sprintf("request line exceeds %d bytes", maxLine)})
	}
	// Any other end — EOF, a closed listener, an idle-timeout deadline —
	// closes the session silently; the client observes the closed socket.
}

// do executes one request line against the staged changes of its
// connection. ok is false for a change staged silently.
func (s *Server) do(line []byte, pending *[]dynfd.Change) (resp response, ok bool) {
	var req request
	if err := json.Unmarshal(line, &req); err != nil {
		return response{Error: fmt.Sprintf("bad request: %v", err)}, true
	}
	switch req.Op {
	case "insert", "delete", "update":
		if max := s.limits.MaxPending; max > 0 && len(*pending) >= max {
			return response{Error: fmt.Sprintf("too many pending changes (limit %d); commit first", max)}, true
		}
		c, err := toChange(req)
		if err != nil {
			return response{Error: err.Error()}, true
		}
		*pending = append(*pending, c)
		if len(*pending) < s.batchSize {
			return response{}, false
		}
		return s.commit(pending), true
	case "commit":
		return s.commit(pending), true
	case "fds":
		snap, _, err := s.rt.Snapshot(s.tenant)
		if err != nil {
			return response{Error: err.Error()}, true
		}
		fds := snap.FDs()
		out := make([]string, len(fds))
		for i, f := range fds {
			out[i] = snap.FormatFD(f)
		}
		return response{OK: true, FDs: out}, true
	case "stats":
		info, err := s.rt.Info(s.tenant)
		if err != nil {
			return response{Error: err.Error()}, true
		}
		batches := int(info.Batches)
		return response{OK: true, Records: &info.Records, Batches: &batches}, true
	}
	return response{Error: fmt.Sprintf("unknown op %q", req.Op)}, true
}

func toChange(req request) (dynfd.Change, error) {
	c := dynfd.Change{Values: req.Values}
	switch req.Op {
	case "insert":
		c.Kind = dynfd.KindInsert
	case "delete":
		c.Kind = dynfd.KindDelete
	case "update":
		c.Kind = dynfd.KindUpdate
	}
	if req.Op != "insert" {
		if req.ID == nil {
			return c, fmt.Errorf("%s requires an id", req.Op)
		}
		c.ID = *req.ID
	}
	return c, nil
}

// commit applies the staged changes as one batch on the tenant. The
// runtime prechecks the batch, so a bad change rejects the whole batch
// without touching the tenant, and Apply returns only once the batch is
// fsynced: the OK response is the durability acknowledgement. A commit
// with nothing staged writes nothing.
func (s *Server) commit(pending *[]dynfd.Change) response {
	changes := *pending
	*pending = changes[:0]
	if len(changes) == 0 {
		return response{OK: true}
	}
	res, err := s.rt.Apply(s.tenant, changes)
	if err != nil {
		return response{Error: err.Error()}
	}
	return response{OK: true, InsertedIDs: res.InsertedIDs, Added: res.Added, Removed: res.Removed}
}
