// Command dynfdd runs DynFD as a network service. Its primary mode is a
// multi-tenant HTTP+JSON constraint service: many named datasets
// (tenants), each backed by its own crash-safe engine under
// <data-root>/<tenant>/, created, dropped, snapshotted, fed batches, and
// queried for FDs, keys, INDs, and violations over a JSON API — see
// internal/httpapi for the endpoint reference.
//
//	dynfdd -http 127.0.0.1:8080 -data-root /var/lib/dynfd
//
//	curl -XPOST localhost:8080/v1/tenants \
//	     -d '{"name":"addresses","columns":["zip","city"]}'
//	curl -XPOST localhost:8080/v1/tenants/addresses/batch \
//	     -d '{"changes":[{"op":"insert","values":["14482","Potsdam"]}]}'
//	curl localhost:8080/v1/tenants/addresses/fds
//
// Every acknowledged batch is fsynced to the tenant's write-ahead log
// before the response is sent; a crash or kill -9 loses nothing that was
// acknowledged, and a restart on the same -data-root recovers every tenant
// independently. A tenant whose engine fails is quarantined (503 on
// writes) without taking down the process or the other tenants.
//
// The original single-dataset line protocol remains available behind
// -listen, for compatibility with existing feeds. It is a thin codec over
// the tenant named "line" under -data-root, created from -columns or
// -initial when absent (later -initial rows are ignored), so it shares the
// runtime's group commit, admission control and quarantine, and the same
// tenant is readable and writable over -http:
//
//	dynfdd -listen 127.0.0.1:7070 -data-root /var/lib/dynfd -columns zip,city
//	printf '{"op":"fds"}\n' | nc 127.0.0.1 7070
//
// Both front ends can run simultaneously over one runtime. On
// SIGINT/SIGTERM the daemon stops accepting, drains in-flight commits,
// checkpoints every engine, and exits 0.
//
// Read endpoints (/fds, /keys, /inds, /violations, tenant listings, and
// metrics) are served from each tenant's last published result snapshot:
// they never queue behind an in-flight batch and report the snapshot's
// sequence number plus a staleness count of batches still committing.
// Writes durably commit through the group-commit WAL: concurrent batches
// on one tenant coalesce into shared fsyncs, each leader syncing whatever
// piled up while the previous fsync ran. Admission caps the batches in
// flight per tenant (429 beyond it) and across tenants (503).
//
// WAL-shipping replication (DESIGN.md §15): a primary adds -repl-addr to
// stream every tenant's WAL tail to followers; a follower daemon runs
// with -replicate-from pointing at that address, mirrors the primary's
// tenants (seeding new ones from checkpoints, then tailing frames), and
// serves every read endpoint from its replayed snapshots. Follower read
// responses report "primary_seq" and "lag", accept ?max_lag=N bounds, and
// writes answer 403 (with -advertise on the primary, stale reads can 307
// there instead).
//
//	dynfdd -http :8080 -data-root /var/lib/dynfd -repl-addr :7071 \
//	       -advertise http://primary:8080                  # primary
//	dynfdd -http :8081 -data-root /var/lib/dynfd-replica \
//	       -replicate-from http://primary:7071             # follower
//
// Failover (DESIGN.md §16): a follower may also pass -repl-addr so that,
// once promoted, it can feed the remaining followers. When the primary
// dies, promote a follower — in place, no restart:
//
//	dynfdd -promote http://follower:8081
//
// Promotion durably bumps every tenant's fencing epoch (a WAL-recorded
// promotion record that survives crash and replay) and opens the write
// gate. If the old primary comes back, any node that observes the higher
// epoch fences it: its writes answer 403 naming the winning epoch, its
// followers re-point at the winner automatically, and restarting it with
// -replicate-from the winner discards its unshipped divergent tail via a
// checkpoint install. GET /repl/v1/status on any node reports its role,
// fence, and per-tenant replication positions; POST /repl/v1/demote
// hands a node the winning epoch and addresses explicitly. See the
// README's "Failover" section for the full three-node walkthrough.
//
// Engines fan Pli maintenance out across GOMAXPROCS goroutines (one per
// CPU unless the GOMAXPROCS environment variable says otherwise); the
// lattice sweeps always run inline. -pprof-addr serves net/http/pprof on
// a separate listener for profiling a live daemon:
//
//	dynfdd -http :8080 -data-root /var/lib/dynfd -pprof-addr 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=30
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"dynfd/internal/dataset"
	"dynfd/internal/durable"
	"dynfd/internal/httpapi"
	"dynfd/internal/repl"
	"dynfd/internal/runtime"
	"dynfd/internal/server"
)

func main() {
	httpAddr := flag.String("http", "", "HTTP listen address for the multi-tenant JSON API")
	dataRoot := flag.String("data-root", "", "directory holding one durable engine per tenant (required)")
	listen := flag.String("listen", "", "TCP listen address for the line protocol, which serves the tenant \"line\"")
	initial := flag.String("initial", "", "line protocol: CSV file (header = schema) to create the tenant \"line\" from when it is absent")
	columns := flag.String("columns", "", "line protocol: comma-separated schema to create the tenant \"line\" with when it is absent and no -initial file is given")
	batch := flag.Int("batch", 100, "line protocol: auto-commit batch size")
	flag.String("workers", "auto", "deprecated and ignored: Pli maintenance always fans out across GOMAXPROCS goroutines (set the GOMAXPROCS environment variable to change it)")
	checkpointEvery := flag.Int("checkpoint-every", durable.DefaultCheckpointEvery, "batches between checkpoints (negative disables)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060) for profiling a live daemon; empty disables")
	replAddr := flag.String("repl-addr", "", "serve the WAL-shipping replication protocol on this address so followers can stream this daemon's tenants; empty disables")
	replicateFrom := flag.String("replicate-from", "", "run as a read-only follower of the primary whose -repl-addr is at this base URL (e.g. http://10.0.0.1:7071); mirrors its tenants and serves all reads with bounded staleness")
	advertise := flag.String("advertise", "", "public base URL of this daemon's -http API, handed to followers for write/stale-read redirects (with -repl-addr)")
	promote := flag.String("promote", "", "one-shot client mode: promote the follower daemon whose -http API is at this base URL to primary, print its new epochs, and exit")
	flag.Parse()

	if *promote != "" {
		if err := promoteNode(*promote); err != nil {
			fmt.Fprintln(os.Stderr, "dynfdd:", err)
			os.Exit(1)
		}
		return
	}
	if *httpAddr == "" && *listen == "" {
		fmt.Fprintln(os.Stderr, "dynfdd: nothing to serve: pass -http addr (multi-tenant API) and/or -listen addr (line protocol)")
		os.Exit(2)
	}
	if *dataRoot == "" {
		fmt.Fprintln(os.Stderr, "dynfdd: -http and -listen require -data-root")
		os.Exit(2)
	}
	if (*replAddr != "" || *replicateFrom != "") && *httpAddr == "" {
		fmt.Fprintln(os.Stderr, "dynfdd: -repl-addr and -replicate-from require -http (the multi-tenant service)")
		os.Exit(2)
	}
	if *listen != "" && *replicateFrom != "" {
		fmt.Fprintln(os.Stderr, "dynfdd: -listen takes writes, so it cannot run on a follower (-replicate-from)")
		os.Exit(2)
	}
	var (
		wg     sync.WaitGroup
		stops  []func() // executed in order on shutdown signal
		failed = make(chan error, 2)
	)
	// Register for shutdown signals before the first listener opens: a
	// SIGTERM that arrives once an address is announced must take the
	// graceful path, not the default kill.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	// Profiling endpoint on its own listener and mux, so the debug surface
	// is never exposed on the service addresses by accident.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dynfdd:", err)
			os.Exit(1)
		}
		psrv := &http.Server{Handler: mux}
		log.Printf("dynfdd: pprof on http://%s/debug/pprof/", ln.Addr())
		go func() {
			if err := psrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("dynfdd: pprof server: %v", err)
			}
		}()
		stops = append(stops, func() { psrv.Close() })
	}

	// One runtime hosts every tenant both front ends serve.
	rt, err := runtime.Open(runtime.Config{
		DataRoot:         *dataRoot,
		CheckpointEvery:  *checkpointEvery,
		ServeReplication: *replAddr != "",
		ReplicateFrom:    *replicateFrom,
		Logger:           log.Default(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynfdd:", err)
		os.Exit(1)
	}

	// Multi-tenant HTTP+JSON service.
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dynfdd:", err)
			os.Exit(1)
		}
		hsrv := &http.Server{Handler: httpapi.New(rt).Handler()}
		switch {
		case *replicateFrom != "":
			log.Printf("dynfdd: http on %s (follower of %s, %d tenants recovered)", ln.Addr(), *replicateFrom, len(rt.List()))
		default:
			log.Printf("dynfdd: http on %s (%d tenants recovered)", ln.Addr(), len(rt.List()))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := hsrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				failed <- err
			}
		}()
		stops = append(stops, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			hsrv.Shutdown(ctx)
		})

		// Replication endpoint on its own listener, so WAL streams never
		// share the public API address.
		if *replAddr != "" {
			rsrv := repl.NewServer(rt)
			rsrv.Advertise = *advertise
			rln, err := net.Listen("tcp", *replAddr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dynfdd:", err)
				os.Exit(1)
			}
			rhsrv := &http.Server{Handler: rsrv.Handler()}
			log.Printf("dynfdd: replication on %s", rln.Addr())
			go func() {
				if err := rhsrv.Serve(rln); err != nil && !errors.Is(err, http.ErrServerClosed) {
					log.Printf("dynfdd: replication server: %v", err)
				}
			}()
			stops = append(stops, func() { rhsrv.Close() })
		}
	}

	// Line protocol over the tenant "line".
	if *listen != "" {
		if err := openLineTenant(rt, *initial, *columns); err != nil {
			fmt.Fprintln(os.Stderr, "dynfdd:", err)
			os.Exit(1)
		}
		srv, err := server.ForTenant(rt, lineTenant, *batch)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dynfdd:", err)
			os.Exit(1)
		}
		l, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dynfdd:", err)
			os.Exit(1)
		}
		log.Printf("dynfdd: serving on %s", l.Addr())
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Serve(l); err != nil {
				failed <- err
			}
		}()
		stops = append(stops, func() { srv.Close() })
	}

	select {
	case s := <-sig:
		log.Printf("dynfdd: received %v, shutting down", s)
	case err := <-failed:
		fmt.Fprintln(os.Stderr, "dynfdd:", err)
		os.Exit(1)
	}
	// Stop accepting and drain in-flight work, then write final
	// per-tenant checkpoints and release storage.
	for _, stop := range stops {
		stop()
	}
	wg.Wait()
	if err := rt.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "dynfdd:", err)
		os.Exit(1)
	}
	log.Printf("dynfdd: shut down cleanly")
}

// promoteNode is the -promote one-shot client: POST /repl/v1/promote on
// the target daemon's public HTTP API and report the promoted epochs. The
// request carries a deadline: in a failover runbook the target may be
// half-dead, and a hung promote is worse than a failed one.
func promoteNode(base string) error {
	url := strings.TrimRight(base, "/") + "/repl/v1/promote"
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Post(url, "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	var body struct {
		Role   string            `json:"role"`
		Epochs map[string]uint64 `json:"epochs"`
		Error  string            `json:"error"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		return fmt.Errorf("promote %s: unexpected response (status %d): %.200s", base, resp.StatusCode, data)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("promote %s: %s (status %d)", base, body.Error, resp.StatusCode)
	}
	if len(body.Epochs) == 0 {
		fmt.Printf("dynfdd: %s is now %s (no tenants promoted)\n", base, body.Role)
		return nil
	}
	names := make([]string, 0, len(body.Epochs))
	for name := range body.Epochs {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("dynfdd: %s is now %s\n", base, body.Role)
	for _, name := range names {
		fmt.Printf("dynfdd: tenant %s promoted to epoch %d\n", name, body.Epochs[name])
	}
	return nil
}

// lineTenant names the runtime tenant the -listen line protocol serves.
const lineTenant = "line"

// openLineTenant makes sure the line protocol's tenant exists, creating it
// from the -initial CSV (header = schema) or the -columns list when it is
// absent. An existing tenant keeps its state, and -initial rows are
// ignored.
func openLineTenant(rt *runtime.Runtime, initial, columns string) error {
	info, err := rt.Info(lineTenant)
	if err == nil {
		if initial != "" {
			log.Printf("dynfdd: tenant %q already holds %d records at seq %d; ignoring -initial rows",
				lineTenant, info.Records, info.Seq)
		}
		return nil
	}
	if !errors.Is(err, runtime.ErrNoSuchTenant) {
		return err
	}
	var (
		cols []string
		rows [][]string
	)
	switch {
	case initial != "":
		rel, err := dataset.ReadCSVFile(initial)
		if err != nil {
			return err
		}
		cols, rows = rel.Columns, rel.Rows
	case columns != "":
		cols = strings.Split(columns, ",")
	default:
		return fmt.Errorf("no tenant %q under %s: pass -columns or -initial to create it", lineTenant, rt.DataRoot())
	}
	return rt.Create(lineTenant, cols, rows)
}
