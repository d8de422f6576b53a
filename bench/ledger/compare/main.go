// Command compare judges ledger runs against each other with the bounds
// in BENCHMARK.json, using only the standard library.
//
//	go run ./compare base.jsonl        # medians and quartiles per workload and metric, as JSON
//	go run ./compare base.jsonl new.jsonl
//
// Each file holds the lines `ledger -record FILE` appended, one run per
// line; run the two sides alternately so that line i of each file forms a
// pair. For every workload and metric the comparison prints both sides'
// median and quartiles, the fraction of pairs the second side wins, and a
// verdict: improved (wins at least nine tenths of the pairs and the
// medians differ by more than the first side's quartile spread),
// regressed (median worse by more than the metric's bound), unchanged,
// or unresolved (the first side's spread exceeds the bound, unless every
// run of the second side beats every run of the first). Per-layer
// metrics have no bound and get no verdict.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// record is the part of a ledger record line the comparison reads.
type record struct {
	Workload string `json:"workload"`
	Metrics  []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// declared is one metric of BENCHMARK.json.
type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchmark struct {
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("benchmark", "", "BENCHMARK.json to take bounds from (default: the nearest one above the working directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(stderr, "usage: compare [-benchmark BENCHMARK.json] base.jsonl [new.jsonl]")
		return 2
	}
	a, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	if fs.NArg() == 1 {
		if err := summarize(stdout, a); err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 1
		}
		return 0
	}
	b, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	bench, err := loadBenchmark(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	compare(stdout, bench, a, b)
	return 0
}

// runs maps workload → metric → values in file order; units maps metric →
// unit.
type runs struct {
	values map[string]map[string][]float64
	units  map[string]string
}

func load(path string) (*runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := &runs{values: make(map[string]map[string][]float64), units: make(map[string]string)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.values[rec.Workload] == nil {
			r.values[rec.Workload] = make(map[string][]float64)
		}
		for _, m := range rec.Metrics {
			r.values[rec.Workload][m.Name] = append(r.values[rec.Workload][m.Name], m.Value)
			r.units[m.Name] = m.Unit
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(r.values) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return r, nil
}

func loadBenchmark(path string) (map[string]declared, error) {
	if path == "" {
		dir, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		for {
			p := filepath.Join(dir, "BENCHMARK.json")
			if _, err := os.Stat(p); err == nil {
				path = p
				break
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				return nil, errors.New("no BENCHMARK.json above the working directory; pass -benchmark")
			}
			dir = parent
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmark
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]declared)
	for _, d := range append(b.EndToEnd, b.PerLayer...) {
		out[d.Name] = d
	}
	return out, nil
}

// quartiles returns the first quartile, median, and third quartile the
// way Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method), so the numbers match what checks the benchmark.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	q := make([]float64, 3)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// summarize prints each workload's metric medians and quartiles as JSON.
func summarize(w io.Writer, r *runs) error {
	type stat struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Runs   int     `json:"runs"`
		Unit   string  `json:"unit"`
	}
	out := make(map[string]map[string]stat)
	for wl, metrics := range r.values {
		out[wl] = make(map[string]stat)
		for name, vs := range metrics {
			q1, med, q3 := quartiles(vs)
			out[wl][name] = stat{med, q1, q3, len(vs), r.units[name]}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// compare prints one row per workload and metric present on both sides.
func compare(w io.Writer, bench map[string]declared, a, b *runs) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\tnew median [q1, q3]\tnew wins\tverdict")
	for _, wl := range sortedKeys(a.values) {
		for _, name := range sortedKeys(a.values[wl]) {
			av, bv := a.values[wl][name], b.values[wl][name]
			if len(bv) == 0 {
				continue
			}
			d := bench[name]
			lower := d.Better != "higher"
			aq1, am, aq3 := quartiles(av)
			bq1, bm, bq3 := quartiles(bv)
			wins, pairs := 0, min(len(av), len(bv))
			for i := 0; i < pairs; i++ {
				if better(bv[i], av[i], lower) {
					wins++
				}
			}
			verdict := "-"
			if d.Bound != nil {
				verdict = judge(av, bv, am, aq1, aq3, bm, *d.Bound, lower, wins, pairs)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%s\n",
				wl, name, a.units[name], am, aq1, aq3, bm, bq1, bq3, wins, pairs, verdict)
		}
	}
	tw.Flush()
}

// better reports whether x beats y; ties count for neither side.
func better(x, y float64, lower bool) bool {
	if lower {
		return x < y
	}
	return x > y
}

// judge applies the verdict rules stated in the package comment.
func judge(av, bv []float64, am, aq1, aq3, bm, bound float64, lower bool, wins, pairs int) string {
	allBetter := true
	for _, x := range bv {
		for _, y := range av {
			if !better(x, y, lower) {
				allBetter = false
			}
		}
	}
	spread := (aq3 - aq1) / am
	switch {
	case pairs > 0 && 10*wins >= 9*pairs && math.Abs(bm-am) > aq3-aq1 && better(bm, am, lower):
		return "improved"
	case allBetter:
		return "improved"
	case spread > bound:
		return "unresolved"
	case better(am*(1+sign(lower)*bound), bm, lower):
		return "regressed"
	default:
		return "unchanged"
	}
}

// sign is +1 when lower is better (worse means larger), −1 otherwise.
func sign(lower bool) float64 {
	if lower {
		return 1
	}
	return -1
}
