package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the benchmark's spreads are
// checked with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		values    []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 1, 3, 2, 5}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(tc.values)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.values, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, values ...string) string {
		var b strings.Builder
		for _, v := range values {
			b.WriteString(`{"workload":"w","metrics":[{"name":"lat","unit":"ms","value":` + v + `}]}` + "\n")
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"lat","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("base", "10", "10.2", "9.9", "10.1", "10")
	for _, tc := range []struct {
		name, verdict string
		values        []string
	}{
		{"same", "unchanged", []string{"10", "10.1", "10", "9.9", "10.2"}},
		{"faster", "improved", []string{"8", "8.1", "7.9", "8", "8.2"}},
		{"slower", "regressed", []string{"12", "12.1", "11.9", "12", "12.2"}},
	} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-benchmark", bench, base, write(tc.name, tc.values...)}, &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d: %s", tc.name, code, errOut.String())
		}
		if !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: want verdict %q in\n%s", tc.name, tc.verdict, out.String())
		}
	}
	noisy := write("noisy", "5", "10", "15", "8", "12")
	var out bytes.Buffer
	if code := run([]string{"-benchmark", bench, noisy, write("n2", "10", "10", "10", "10", "10")}, &out, os.Stderr); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "unresolved") {
		t.Errorf("want unresolved for a spread above the bound:\n%s", out.String())
	}
}
