// Command ledger is DynFD's service-level performance ledger. It stands up
// the real stack in one process — primary runtime, HTTP API on a loopback
// listener, replication server, follower runtime — drives one of three
// workloads over HTTP, checks the results against static HyFD on the
// relation rebuilt from the acknowledged history, and prints every
// end-to-end metric. With -trace 1 it instead replays the same batches
// down the layers (HTTP, runtime, durable, core) and prints per-layer
// metrics. See README.md.
//
//	bash bench/ledger/run.sh --workload artist-ingest --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the knobs of one invocation.
type options struct {
	seed    int64
	seconds float64
	scale   float64 // initial-relation size factor; 1 in every recorded run
	dir     string  // parent of the per-run data roots
}

// runResult is one workload run: the contract line plus what the
// record file keeps.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	Metrics   metrics  `json:"metrics"`
	Env       envInfo  `json:"env"`
}

// fail records a correctness or operation failure.
func (r *runResult) fail(err error) {
	r.Failed++
	r.Problems = append(r.Problems, err.Error())
}

// count adds a measured phase's operations and failures.
func (r *runResult) count(lr *loadResult) {
	r.Attempted += lr.attempted
	r.Failed += lr.failed
	r.Problems = append(r.Problems, lr.problems...)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: artist-ingest, claims-commit, disease-serve, or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced layer-descent run printing per-layer metrics, 0 = end-to-end metrics")
	record := fs.String("record", "", "append each run's full result as one JSON line to this file")
	dir := fs.String("dir", ".bench_build", "directory under which each run creates (and removes) its data roots")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "ledger: usage: ledger [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-record file]")
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "ledger:", err)
			return 2
		}
		ws = []workload{w}
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "ledger:", err)
		return 1
	}
	o := options{seed: *seed, seconds: *seconds, scale: 1, dir: *dir}
	env := currentEnv("bash bench/ledger/run.sh " + strings.Join(args, " "))
	fmt.Fprintf(stdout, "# nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n", env.NProc, env.GOMAXPROCS, env.CPU, env.GoVersion, env.Commit)
	fmt.Fprintf(stdout, "# re-record: %s\n", env.Command)
	code := 0
	for _, w := range ws {
		var res *runResult
		var err error
		if *trace == 1 {
			res, _, err = runTraced(w, o)
		} else {
			res, err = runUntraced(w, o)
		}
		if err != nil {
			fmt.Fprintf(stderr, "ledger: %s: %v\n", w.name, err)
			return 1
		}
		res.Env = env
		if err := report(stdout, res); err != nil {
			fmt.Fprintln(stderr, "ledger:", err)
			return 1
		}
		if !res.Correct {
			for _, p := range res.Problems {
				fmt.Fprintf(stderr, "ledger: %s: %s\n", w.name, p)
			}
			code = 1
			continue // a failed run's metrics are not recorded
		}
		if *record != "" {
			if err := appendRecord(*record, res); err != nil {
				fmt.Fprintln(stderr, "ledger:", err)
				return 1
			}
		}
	}
	return code
}

// report prints the human-readable metric lines, then the contract's
// JSON line.
func report(w io.Writer, res *runResult) error {
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%v correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Correct, res.Attempted, res.Failed)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value, len(res.Metrics))}
	for _, m := range res.Metrics {
		fmt.Fprintf(w, "%-36s %14.4f %-10s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func appendRecord(path string, res *runResult) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runUntraced is the end-to-end run: several timed set-ups, one measured
// phase under the workload's load, the correctness gate, then the
// resource metrics.
func runUntraced(w workload, o options) (*runResult, error) {
	in, err := generate(w, o.seed, o.seconds, o.scale)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: w.name, Seed: o.seed, Seconds: o.seconds}
	var setups []float64
	var s *stack
	for k := 0; k < w.setups; k++ {
		dir, err := os.MkdirTemp(o.dir, w.name+"-")
		if err != nil {
			return nil, err
		}
		st, d, err := openStack(dir, in, nil)
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		if k < w.setups-1 {
			st.close()
		} else {
			s = st
		}
	}
	defer s.close()
	c := newClient(s.apiURL, maxConns(w))
	defer c.close()

	io0, err := writeBytes()
	if err != nil {
		return nil, err
	}
	obs := observe(s)
	lr := phase(c, w, in, seconds(o.seconds), obs)
	err = obs.settle(s)
	io1, ioErr := writeBytes()
	if err != nil {
		return nil, err
	}
	if ioErr != nil {
		return nil, ioErr
	}
	res.count(lr)
	lags, err := obs.lags(lr.acks)
	if err != nil {
		res.fail(err)
	}

	_, problems, err := gate(s, c, w, in, lr)
	if err != nil {
		return nil, err
	}
	for _, p := range problems {
		res.fail(errors.New(p))
	}
	*in = inputs{} // request bodies and history released before measuring the live heap
	goruntime.GC()
	goruntime.GC() // the second cycle also frees what sync.Pools kept as victims
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)

	changes := float64(len(lr.acks) * w.batch)
	commitMS := asUnit(lr.commits(), time.Millisecond)
	readUS := asUnit(lr.reads, time.Microsecond)
	lagMS := asUnit(lags, time.Millisecond)
	m := &res.Metrics
	m.add("setup_s", "s", median(setups), len(setups))
	m.add("changes_per_s", "changes/s", changes/lr.end.Sub(lr.start).Seconds(), len(lr.acks))
	m.add("commit_p50_ms", "ms", median(commitMS), len(commitMS))
	m.add("read_p50_us", "us", median(readUS), len(readUS))
	m.add("repl_lag_p50_ms", "ms", median(lagMS), len(lagMS))
	m.add("mem_live_mb", "MiB", float64(ms.HeapAlloc)/(1<<20), 1)
	m.add("disk_write_bytes_per_change", "B/change", ratio(float64(io1-io0), changes), len(lr.acks))
	if len(lr.acks) == 0 {
		res.fail(errors.New("no batch was acknowledged"))
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// writeBytes is the process's write_bytes from /proc/self/io: bytes this
// process caused to be sent to storage, counted when pages are dirtied.
func writeBytes() (int64, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "write_bytes: "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("/proc/self/io has no write_bytes line")
}

// envInfo identifies where and how a run was taken.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Date       string `json:"date"`
	Command    string `json:"command"`
}

func currentEnv(command string) envInfo {
	return envInfo{
		NProc:      goruntime.NumCPU(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  goruntime.Version(),
		Commit:     gitCommit(),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Command:    command,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the repository root's .git directory without
// running git. The root is the nearest directory at or above the working
// directory that holds module dynfd's go.mod, so nothing above the
// checkout is read; a checkout without .git reports "unknown".
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for !isRepoRoot(dir) {
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
	gitDir := filepath.Join(dir, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// isRepoRoot reports whether dir holds the go.mod of module dynfd.
func isRepoRoot(dir string) bool {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return false
	}
	first, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(first) == "module dynfd"
}
