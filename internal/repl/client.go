package repl

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"dynfd/internal/wal"
)

// Client speaks the follower side of the replication protocol against one
// primary. The primary it points at can change at runtime — a fenced
// response names the failover winner and Repoint switches over — so the
// base URL is guarded for concurrent readers.
type Client struct {
	mu   sync.Mutex
	base string // primary replication base URL, no trailing slash
	hc   *http.Client
}

// NewClient returns a client for the primary at base (e.g.
// "http://10.0.0.1:7071"). httpClient nil uses a default client without
// timeouts — tail streams are long-lived, so any overall timeout on the
// client would tear them down.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{}
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// Base returns the primary replication base URL. Safe from any goroutine.
func (c *Client) Base() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.base
}

// Repoint switches the client to a new primary base URL — the follower's
// reaction to a fenced response naming the failover winner. In-flight
// requests finish against the old base; every later request uses the new
// one. Safe from any goroutine, so one shared client heals every follower
// that uses it.
func (c *Client) Repoint(base string) {
	c.mu.Lock()
	c.base = strings.TrimRight(base, "/")
	c.mu.Unlock()
}

// Tenants fetches the primary's replicable tenant listing and its
// advertised public API URL.
func (c *Client) Tenants(ctx context.Context) ([]TenantStatus, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base()+"/repl/v1/tenants", nil)
	if err != nil {
		return nil, "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, "", statusError("tenant listing", resp)
	}
	var body tenantsResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&body); err != nil {
		return nil, "", fmt.Errorf("repl: decoding tenant listing: %w", err)
	}
	return body.Tenants, body.Advertise, nil
}

// Checkpoint fetches the primary's latest checkpoint for the tenant,
// returning the blob, the WAL sequence it covers, and its fencing epoch.
// The epoch is advisory (0 when the primary predates the header): the blob
// itself carries the authoritative value and the installing engine
// re-validates, but it lets the catch-up guard recognize an epoch-forced
// install at a lower sequence.
func (c *Client) Checkpoint(ctx context.Context, tenant string) (blob []byte, seq, epoch uint64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.Base()+"/repl/v1/t/"+tenant+"/checkpoint", nil)
	if err != nil {
		return nil, 0, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, 0, 0, statusError("checkpoint fetch", resp)
	}
	seq, err = strconv.ParseUint(resp.Header.Get(SeqHeader), 10, 64)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("repl: checkpoint response missing %s header: %w", SeqHeader, err)
	}
	epoch, _ = strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64)
	blob, err = io.ReadAll(io.LimitReader(resp.Body, 1<<31))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("repl: reading checkpoint: %w", err)
	}
	return blob, seq, epoch, nil
}

// TailStream is one open frame stream from the primary. Next returns
// frames in order until the stream ends or tears; the caller must Close it.
type TailStream struct {
	resp *http.Response
	rd   *wal.TailReader
}

// Next returns the next complete, checksum-valid frame. Any error —
// including a torn or corrupt frame, which is never returned as data —
// ends the stream; the caller reconnects from its last applied sequence.
func (t *TailStream) Next() (Frame, error) {
	rec, err := t.rd.Next()
	if err != nil {
		return Frame{}, err
	}
	return Frame{Seq: rec.Seq, Payload: rec.Payload}, nil
}

// Close releases the underlying connection. The body is not drained: a
// tail stream never ends on its own (heartbeats keep it open), so a drain
// would block until its byte limit filled, stalling the reconnect after a
// replica failure for as long as the primary takes to send that many
// heartbeats.
func (t *TailStream) Close() error {
	return t.resp.Body.Close()
}

// Tail opens a frame stream resuming after sequence from, presenting the
// follower's fencing epoch. ErrSnapshotNeeded reports that the primary no
// longer retains from+1 — or that the follower's history diverged across a
// failover — and a checkpoint must be installed first; a *FencedError
// reports the primary itself is the stale side.
func (c *Client) Tail(ctx context.Context, tenant string, from, epoch uint64) (*TailStream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.Base()+"/repl/v1/t/"+tenant+"/wal?from="+strconv.FormatUint(from, 10)+
			"&epoch="+strconv.FormatUint(epoch, 10), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusGone {
		drain(resp)
		return nil, ErrSnapshotNeeded
	}
	if resp.StatusCode != http.StatusOK {
		defer drain(resp)
		return nil, statusError("wal tail", resp)
	}
	return &TailStream{resp: resp, rd: wal.NewTailReader(resp.Body)}, nil
}

// drain consumes and closes a response body so the connection can be
// reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// statusError renders a non-2xx protocol response, including the JSON
// error body when one is present. A 403 carrying a fencing epoch decodes
// to a typed *FencedError so the follower can react (re-point, back off)
// instead of treating it as an opaque failure.
func statusError(op string, resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var body fencedBody
	if json.Unmarshal(data, &body) == nil && body.Error != "" {
		if resp.StatusCode == http.StatusForbidden && body.Epoch > 0 {
			return &FencedError{Epoch: body.Epoch, Primary: body.Primary}
		}
		return fmt.Errorf("repl: %s: %s (status %d)", op, body.Error, resp.StatusCode)
	}
	return fmt.Errorf("repl: %s: status %d", op, resp.StatusCode)
}
