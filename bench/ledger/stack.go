package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dynfd/internal/httpapi"
	"dynfd/internal/repl"
	"dynfd/internal/runtime"
)

// engineConfig is the shipped daemon's default engine configuration
// (dynfdd -workers auto, -checkpoint-every 64, -sync-max-delay 0,
// -commit-queue 0, default limits, fsync on every group commit).
func engineConfig(root string) runtime.Config {
	return runtime.Config{DataRoot: root, Workers: -1, CheckpointEvery: 64}
}

// stack is the service wired the way `dynfdd -http … -repl-addr …` plus
// one `dynfdd -replicate-from …` follower wire it, in one process: a
// primary runtime behind httpapi on a loopback listener, a replication
// server, and a follower runtime tailing it.
type stack struct {
	dir      string
	primary  *runtime.Runtime
	follower *runtime.Runtime
	api      *http.Server
	apiURL   string
	replSrv  *http.Server
	serving  sync.WaitGroup
}

// openStack stands the stack up and bootstraps the tenant; the returned
// duration is the set-up time: runtimes opened, tenant bootstrapped
// (HyFD + first checkpoint), follower serving the bootstrap sequence.
// wrap, when non-nil, wraps the API handler (the traced run times it).
func openStack(dir string, in *inputs, wrap func(http.Handler) http.Handler) (*stack, time.Duration, error) {
	start := time.Now()
	s := &stack{dir: dir}
	var err error
	pcfg := engineConfig(filepath.Join(dir, "primary"))
	pcfg.ServeReplication = true
	if s.primary, err = runtime.Open(pcfg); err != nil {
		return nil, 0, err
	}
	handler := httpapi.New(s.primary).Handler()
	if wrap != nil {
		handler = wrap(handler)
	}
	s.api = &http.Server{Handler: handler}
	if s.apiURL, err = s.serve(s.api); err != nil {
		s.close()
		return nil, 0, err
	}
	s.replSrv = &http.Server{Handler: repl.NewServer(s.primary).Handler()}
	replURL, err := s.serve(s.replSrv)
	if err != nil {
		s.close()
		return nil, 0, err
	}
	// The tenant exists before the follower starts, so the follower's
	// first tenant listing (run at open) seeds it instead of waiting out a
	// 2 s poll interval.
	if err := s.primary.CreateWithOptions(tenantName, in.columns, in.initial, runtime.CreateOptions{}); err != nil {
		s.close()
		return nil, 0, err
	}
	fcfg := engineConfig(filepath.Join(dir, "follower"))
	fcfg.ReplicateFrom = replURL
	if s.follower, err = runtime.Open(fcfg); err != nil {
		s.close()
		return nil, 0, err
	}
	snap, _, err := s.primary.Snapshot(tenantName)
	if err != nil {
		s.close()
		return nil, 0, err
	}
	if err := s.waitFollower(snap.Seq(), time.Minute); err != nil {
		s.close()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// serve starts srv on a fresh loopback listener and returns its base URL.
func (s *stack) serve(srv *http.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "ledger: serve:", err)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// followerSeq returns the sequence of the follower's published snapshot
// (0 while the replica does not exist yet).
func (s *stack) followerSeq() uint64 {
	snap, _, err := s.follower.Snapshot(tenantName)
	if err != nil {
		return 0
	}
	return snap.Seq()
}

// waitFollower polls until the follower serves seq or the timeout passes.
func (s *stack) waitFollower(seq uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for s.followerSeq() < seq {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower still at seq %d after %v, want %d", s.followerSeq(), timeout, seq)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// close stops everything the stack started, waits for its server
// goroutines, and deletes its data. The API server shuts down gracefully
// so every handler has returned (and recorded its timing) afterwards.
func (s *stack) close() {
	if s.follower != nil {
		s.follower.Close()
	}
	if s.replSrv != nil {
		s.replSrv.Close()
	}
	if s.api != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := s.api.Shutdown(ctx); err != nil {
			s.api.Close()
		}
		cancel()
	}
	if s.primary != nil {
		s.primary.Close()
	}
	s.serving.Wait()
	os.RemoveAll(s.dir)
}
