// Command dynfd maintains the minimal functional dependencies of a CSV
// relation under a change stream, printing every FD change as it happens.
//
// Usage:
//
//	dynfd [-batch n] [-initial data.csv] [-quiet] changes.jsonl
//
// The change stream is a JSON-lines file (use "-" for stdin):
//
//	{"op":"insert","values":["14482","Potsdam"]}
//	{"op":"delete","id":3}
//	{"op":"update","id":4,"values":["14482","Berlin"]}
//
// Record ids: the initial CSV rows receive ids 0..n-1 in file order; every
// insert or update receives the next sequential id. Without -initial the
// relation starts empty and the schema is taken from -columns.
//
// -snapshot prints a constraint report after the replay — single-column
// keys and unary inclusion dependencies — answered from the monitor's
// final immutable result snapshot (Monitor.Snapshot), the same
// copy-on-write read path the dynfdd daemon serves its query endpoints
// from. The replay monitor is in-memory: nothing is logged or fsynced.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"dynfd"
	"dynfd/internal/dataset"
	"dynfd/internal/stream"
)

func main() {
	batchSize := flag.Int("batch", 100, "changes per maintenance batch")
	initial := flag.String("initial", "", "CSV file with the initial relation (header = schema)")
	columns := flag.String("columns", "", "comma-separated schema when no -initial file is given")
	quiet := flag.Bool("quiet", false, "suppress per-batch FD changes; print only the final FDs")
	snapReport := flag.Bool("snapshot", false, "after the replay, report single-column keys and unary INDs from the final result snapshot")
	flag.String("workers", "auto", "deprecated and ignored: Pli maintenance always fans out across GOMAXPROCS goroutines (set the GOMAXPROCS environment variable to change it)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the replay to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the replay, post-GC) to this file")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dynfd [flags] changes.jsonl\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	err := profiled(*cpuprofile, *memprofile, func() error {
		return run(flag.Arg(0), *initial, *columns, *batchSize, *quiet, *snapReport, os.Stdout)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynfd:", err)
		os.Exit(1)
	}
}

// profiled runs fn under the optional pprof collectors, so hot-path work
// can be profiled against real replays without editing code:
//
//	dynfd -initial data.csv -cpuprofile cpu.out -memprofile mem.out changes.jsonl
//	go tool pprof cpu.out
//
// An empty path disables the respective profile. The heap profile is
// written after fn returns, following a GC, so it reflects live steady-
// state memory rather than transient batch garbage.
func profiled(cpuPath, memPath string, fn func() error) error {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if err := fn(); err != nil {
		return err
	}
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC() // materialize up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}

func run(changesPath, initial, columns string, batchSize int, quiet, snapReport bool, out io.Writer) error {
	if batchSize <= 0 {
		return fmt.Errorf("batch size must be positive")
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
		return fmt.Errorf("either -initial or -columns is required")
	}

	mon, err := dynfd.NewMonitor(cols)
	if err != nil {
		return err
	}
	if len(rows) > 0 {
		if err := mon.Bootstrap(rows); err != nil {
			return err
		}
	}
	if !quiet {
		fmt.Fprintf(out, "# bootstrap: %d rows, %d minimal FDs\n", len(rows), len(mon.FDs()))
		for _, f := range mon.FDs() {
			fmt.Fprintf(out, "+ %s\n", mon.FormatFD(f))
		}
	}

	changes, err := readChanges(changesPath)
	if err != nil {
		return err
	}
	for i, b := range stream.FixedBatches(changes, batchSize) {
		diff, err := mon.Apply(toPublicChanges(b.Changes)...)
		if err != nil {
			return fmt.Errorf("batch %d: %w", i, err)
		}
		if quiet {
			continue
		}
		for _, f := range diff.Removed {
			fmt.Fprintf(out, "- %s (batch %d)\n", mon.FormatFD(f), i)
		}
		for _, f := range diff.Added {
			fmt.Fprintf(out, "+ %s (batch %d)\n", mon.FormatFD(f), i)
		}
	}

	fmt.Fprintf(out, "# final: %d rows, %d minimal FDs\n", mon.NumRecords(), len(mon.FDs()))
	if quiet {
		for _, f := range mon.FDs() {
			fmt.Fprintf(out, "+ %s\n", mon.FormatFD(f))
		}
	}
	st := mon.Stats()
	fmt.Fprintf(out, "# stats: %d batches, %d validations (%d skipped), %d comparisons\n",
		st.Batches, st.Validations, st.SkippedValidations, st.Comparisons)
	if snapReport {
		snap := mon.Snapshot()
		fmt.Fprintf(out, "# snapshot %d: %d rows\n", snap.Seq(), snap.NumRecords())
		snapCols := snap.Columns()
		for _, c := range snapCols {
			if u, err := snap.Unique([]string{c}); err == nil && u {
				fmt.Fprintf(out, "key %s\n", c)
			}
		}
		for _, d := range snap.INDs() {
			fmt.Fprintf(out, "ind %s <= %s\n", snapCols[d.Lhs], snapCols[d.Rhs])
		}
	}
	return nil
}

func readChanges(path string) ([]stream.Change, error) {
	if path == "-" {
		return stream.ReadChanges(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return stream.ReadChanges(f)
}

func toPublicChanges(in []stream.Change) []dynfd.Change {
	out := make([]dynfd.Change, len(in))
	for i, c := range in {
		pc := dynfd.Change{ID: c.ID, Values: c.Values, Time: c.Time}
		switch c.Kind {
		case stream.Insert:
			pc.Kind = dynfd.KindInsert
		case stream.Delete:
			pc.Kind = dynfd.KindDelete
		case stream.Update:
			pc.Kind = dynfd.KindUpdate
		}
		out[i] = pc
	}
	return out
}
