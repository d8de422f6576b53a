package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

// declaredNames reads the metric names BENCHMARK.json declares.
func declaredNames(t *testing.T) (endToEnd, perLayer map[string]bool) {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = make(map[string]bool), make(map[string]bool)
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = true
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = true
	}
	return endToEnd, perLayer
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetrics asserts a run emitted exactly the declared names, each
// well formed and with a sample count.
func checkMetrics(t *testing.T, res *runResult, want map[string]bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s seed %d: correct=%v attempted=%d failed=%d problems=%q", res.Workload, res.Seed, res.Correct, res.Attempted, res.Failed, res.Problems)
	}
	seen := make(map[string]bool)
	for _, m := range res.Metrics {
		if !metricName.MatchString(m.Name) || !want[m.Name] || seen[m.Name] {
			t.Errorf("%s: metric %q is malformed, undeclared, or repeated", res.Workload, m.Name)
		}
		seen[m.Name] = true
		if m.Samples < 1 {
			t.Errorf("%s: metric %s reports %d samples", res.Workload, m.Name, m.Samples)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: declared metric %s not emitted", res.Workload, name)
		}
	}
}

// TestSmoke runs every workload at tiny scale, untraced and traced, on the
// default seed and one other, with the correctness gate on.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declaredNames(t)
	for _, seed := range []int64{1, 7} {
		for _, w := range workloads {
			o := options{seed: seed, seconds: 0.6, scale: 0.02, dir: t.TempDir()}
			res, err := runUntraced(w, o)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			checkMetrics(t, res, endToEnd)

			res, layers, err := runTraced(w, o)
			if err != nil {
				t.Fatalf("%s seed %d traced: %v", w.name, seed, err)
			}
			checkMetrics(t, res, perLayer)
			var sum, rtt time.Duration
			for i, l := range layers {
				for _, d := range []time.Duration{l.transport, l.writeSelf, l.queue, l.runtimeSelf, l.stageSelf, l.wait, l.core, l.build} {
					if d < 0 {
						t.Fatalf("%s: batch %d has a negative self time: %+v", w.name, i, l)
					}
				}
				sum += l.sum()
				rtt += l.rtt
			}
			if diff := (sum - rtt).Abs(); rtt <= 0 || float64(diff) > 0.05*float64(rtt) {
				t.Errorf("%s seed %d: self times sum to %v, round trips to %v", w.name, seed, sum, rtt)
			}
		}
	}
}

// shape numbers every value by its column and first appearance in the
// relation and then the history, so two inputs have the same shape
// exactly when they agree and differ on the same columns everywhere.
func shape(in *inputs) []int {
	first := make([]map[string]int, len(in.columns))
	for c := range first {
		first[c] = make(map[string]int)
	}
	var out []int
	add := func(row []string) {
		for c, v := range row {
			if _, ok := first[c][v]; !ok {
				first[c][v] = len(first[c])
			}
			out = append(out, first[c][v])
		}
	}
	for _, row := range in.initial {
		add(row)
	}
	for _, ch := range in.changes {
		add(ch.Values)
		out = append(out, int(ch.Kind), int(ch.ID))
	}
	return out
}

// TestSeedsGiveDistinctInputs: a seed decides the values sent, the same
// seed gives the same inputs, and every seed gives inputs of one shape.
func TestSeedsGiveDistinctInputs(t *testing.T) {
	w, err := workloadByName("disease-serve")
	if err != nil {
		t.Fatal(err)
	}
	a, err := generate(w, 1, 0.2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(w, 1, 0.2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	c, err := generate(w, 2, 0.2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.bodies[0]) != string(b.bodies[0]) || len(a.initial) != len(b.initial) {
		t.Error("the same seed gave different inputs")
	}
	if string(a.bodies[0]) == string(c.bodies[0]) {
		t.Error("seeds 1 and 2 sent the same first batch")
	}
	if !slices.Equal(shape(a), shape(c)) {
		t.Error("seeds 1 and 2 gave relations of different shapes")
	}
}
