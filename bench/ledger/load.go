package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	goruntime "runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client is the benchmark's one load process: every request goes through
// one transport holding at most nproc connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// maxConns is the client connection budget: nproc, but no more than the
// goroutines that can use one.
func maxConns(w workload) int {
	g := w.writers
	if w.readRate > 0 {
		g++ // the open-loop reader
	}
	return min(goruntime.NumCPU(), g)
}

// Request headers naming a request's batch or read index, so the traced
// run's handler wrapper can attribute its timing.
const (
	batchHeader = "X-Ledger-Batch"
	readHeader  = "X-Ledger-Read"
)

// do sends one request and reads the whole response body.
func (c *client) do(method, path string, body []byte, header string, index int) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set(header, strconv.Itoa(index))
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

// ack is one acknowledged batch.
type ack struct {
	batch   int
	seq     uint64
	at      time.Time
	latency time.Duration // send (open loop: due) time → ack
}

// loadResult is what one measured phase observed.
type loadResult struct {
	start, end time.Time       // end: the last ack
	acks       []ack           // in ack order
	reads      []time.Duration // due → full response body
	readRTT    []time.Duration // send → full response body
	readIdx    []int           // read index of each entry above
	writeRTT   []time.Duration // by ack order; send → ack
	late       []time.Duration // open-loop sends: actual − due; closed loop: actual − previous step's end
	attempted  int
	failed     int
	problems   []string
}

// phase drives one workload's load for the given duration: the writers
// (closed loop, or open loop at writeRate) and the reads (open loop at
// readRate, or, at readRate 0, one by the closed-loop writer after each
// batch). The phase ends early when the writers have sent every batch.
// obs watches the follower; closed-loop writers of an awaitReplica
// workload wait on it after each ack.
func phase(c *client, w workload, in *inputs, d time.Duration, obs *observer) *loadResult {
	res := &loadResult{start: time.Now()}
	deadline := res.start.Add(d)
	var mu sync.Mutex
	fail := func(format string, args ...any) {
		mu.Lock()
		res.failed++
		if len(res.problems) < 10 {
			res.problems = append(res.problems, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}
	// read sends read j and records it. due is when an open-loop read was
	// due; a closed-loop read passes the zero time and is timed from its
	// send.
	read := func(j int, due time.Time) {
		sent := time.Now()
		openLoop := !due.IsZero()
		if !openLoop {
			due = sent
		}
		status, body, err := c.do(http.MethodGet, in.reads[j%len(in.reads)], nil, readHeader, j)
		done := time.Now()
		mu.Lock()
		res.attempted++
		if openLoop {
			res.late = append(res.late, sent.Sub(due))
		}
		mu.Unlock()
		if err != nil || status != http.StatusOK {
			fail("read %d: status %d err %v: %.200s", j, status, err, body)
			return
		}
		mu.Lock()
		res.reads = append(res.reads, done.Sub(due))
		res.readRTT = append(res.readRTT, done.Sub(sent))
		res.readIdx = append(res.readIdx, j)
		mu.Unlock()
	}
	var wg, writers sync.WaitGroup
	var next atomic.Int64
	writing := make(chan struct{})
	for g := 0; g < w.writers; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			// ready is when a closed loop's previous step — write, wait for
			// the follower, read — ended, so its next batch became due.
			for ready := res.start; ; ready = time.Now() {
				i := int(next.Add(1) - 1)
				if i >= len(in.bodies) {
					return
				}
				var due time.Time
				if w.writeRate > 0 {
					due = res.start.Add(time.Duration(float64(i) / w.writeRate * float64(time.Second)))
					if !due.Before(deadline) {
						return
					}
					sleepUntil(due)
				} else if !time.Now().Before(deadline) {
					return
				}
				sent := time.Now()
				if due.IsZero() {
					due = sent
				}
				status, body, err := c.do(http.MethodPost, "/v1/tenants/"+tenantName+"/batch", in.bodies[i], batchHeader, i)
				at := time.Now()
				mu.Lock()
				res.attempted++
				if w.writeRate > 0 {
					res.late = append(res.late, sent.Sub(due))
				} else {
					res.late = append(res.late, sent.Sub(ready))
				}
				mu.Unlock()
				if err != nil || status != http.StatusOK {
					fail("batch %d: status %d err %v: %.200s", i, status, err, body)
					continue
				}
				var r struct {
					Seq         uint64  `json:"seq"`
					InsertedIDs []int64 `json:"inserted_ids"`
				}
				if err := json.Unmarshal(body, &r); err != nil {
					fail("batch %d: bad ack: %v", i, err)
					continue
				}
				if !idsMatch(w, in.wantIDs[i], r.InsertedIDs) {
					fail("batch %d: inserted ids %v, want %v", i, r.InsertedIDs, in.wantIDs[i])
					continue
				}
				mu.Lock()
				res.acks = append(res.acks, ack{batch: i, seq: r.Seq, at: at, latency: at.Sub(due)})
				res.writeRTT = append(res.writeRTT, at.Sub(sent))
				mu.Unlock()
				if w.awaitReplica {
					if err := obs.await(r.Seq); err != nil {
						fail("batch %d: %v", i, err)
						return
					}
				}
				if w.readRate == 0 {
					read(i, time.Time{})
				}
			}
		}()
	}
	if w.readRate > 0 {
		// Reads are due halfway between two open-loop writes, so the two
		// schedules never lock into sending at the same instants.
		var readOffset float64
		if w.writeRate > 0 {
			readOffset = 0.5 / w.writeRate
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; ; j++ {
				due := res.start.Add(time.Duration((float64(j)/w.readRate + readOffset) * float64(time.Second)))
				if !due.Before(deadline) {
					return
				}
				sleepUntil(due)
				select {
				case <-writing:
					return
				default:
				}
				read(j, due)
			}
		}()
	}
	writers.Wait()
	close(writing)
	wg.Wait()
	res.end = res.start
	for _, a := range res.acks {
		if a.at.After(res.end) {
			res.end = a.at
		}
	}
	return res
}

// sleepUntil returns at t. On Linux, Go's timers wake through epoll, whose
// timeout counts whole milliseconds, so an open-loop send timed by one
// alone runs up to ~1 ms late, by an amount that follows the fraction of
// a millisecond the previous request took; a latency median measured from
// the due time then jumps with that fraction from run to run. The last
// stretch is slept in nanosleep, which wakes within ~60 µs.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 1500*time.Microsecond; d > 0 {
		time.Sleep(d)
	}
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // interrupted: the loop sleeps the rest
	}
}

// idsMatch checks an ack's minted ids. In-order histories must get
// exactly datagen's ids; concurrent order-free writers only the count.
func idsMatch(w workload, want, got []int64) bool {
	if len(want) != len(got) {
		return false
	}
	if w.orderFree {
		return true
	}
	for i := range want {
		if want[i] != got[i] {
			return false
		}
	}
	return true
}

// commits returns each acknowledged batch's commit latency, in ack order.
func (r *loadResult) commits() []time.Duration {
	out := make([]time.Duration, len(r.acks))
	for i, a := range r.acks {
		out[i] = a.latency
	}
	return out
}

// applied returns the acknowledged batch indexes in ack order.
func (r *loadResult) applied() []int {
	out := make([]int, len(r.acks))
	for i, a := range r.acks {
		out[i] = a.batch
	}
	return out
}

// observer records when each sequence becomes visible on the follower:
// it polls the follower runtime's published snapshot in-process, without
// a client connection, sleeping 50 µs between polls — which Go's
// millisecond timers stretch to ~1.1 ms (README.md, "The stack").
type observer struct {
	stop     chan struct{}
	done     chan struct{}
	last     atomic.Uint64 // highest sequence seen
	visible  map[uint64]time.Time
	advances int // polls that saw the sequence move
	seqs     int // sequences those advances covered
}

func observe(s *stack) *observer {
	o := &observer{stop: make(chan struct{}), done: make(chan struct{}), visible: make(map[uint64]time.Time)}
	o.last.Store(s.followerSeq())
	go func() {
		defer close(o.done)
		last := o.last.Load()
		for {
			select {
			case <-o.stop:
				return
			default:
			}
			if seq := s.followerSeq(); seq > last {
				now := time.Now()
				for q := last + 1; q <= seq; q++ {
					o.visible[q] = now
				}
				o.advances++
				o.seqs += int(seq - last)
				last = seq
				o.last.Store(seq)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	return o
}

// await waits until the observer has seen the follower serve seq.
func (o *observer) await(seq uint64) error {
	deadline := time.Now().Add(time.Minute)
	for o.last.Load() < seq {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower still at seq %d after a minute, want %d", o.last.Load(), seq)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// settle waits until the follower serves the primary's published
// sequence, then stops the observer.
func (o *observer) settle(s *stack) error {
	defer o.finish()
	snap, _, err := s.primary.Snapshot(tenantName)
	if err != nil {
		return err
	}
	return o.await(snap.Seq())
}

// finish stops the observer and waits for its goroutine; its fields are
// safe to read afterwards.
func (o *observer) finish() {
	close(o.stop)
	<-o.done
}

// lags returns, per acknowledged batch, primary ack → follower visible.
func (o *observer) lags(acks []ack) ([]time.Duration, error) {
	out := make([]time.Duration, 0, len(acks))
	for _, a := range acks {
		v, ok := o.visible[a.seq]
		if !ok {
			return nil, fmt.Errorf("seq %d never became visible on the follower", a.seq)
		}
		out = append(out, v.Sub(a.at))
	}
	return out, nil
}
