package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynfd/internal/core"
	"dynfd/internal/faultio"
	"dynfd/internal/stream"
	"dynfd/internal/wal"
)

var testColumns = []string{"a", "b", "c"}

var testRows = [][]string{
	{"1", "x", "p"},
	{"1", "x", "q"},
	{"2", "y", "p"},
	{"3", "y", "q"},
}

func testOpts() Options {
	return Options{Columns: testColumns, Config: core.DefaultConfig(), CheckpointEvery: -1}
}

func insertBatch(values ...string) stream.Batch {
	return stream.Batch{Changes: []stream.Change{{Kind: stream.Insert, Values: values}}}
}

func fdsOf(e *Engine) string { return fmt.Sprint(e.Core().FDs()) }

func TestOpenBootstrapApplyCloseReopen(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	st, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(st, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Bootstrap(testRows); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.Apply(insertBatch(fmt.Sprint(i+7), "z", "r")); err != nil {
			t.Fatal(err)
		}
	}
	want := fdsOf(eng)
	wantRecords := eng.Core().NumRecords()
	if eng.Seq() != 3 {
		t.Fatalf("seq = %d, want 3", eng.Seq())
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	eng2, err := Open(st2, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := fdsOf(eng2); got != want {
		t.Fatalf("FDs after reopen:\n got %s\nwant %s", got, want)
	}
	if eng2.Core().NumRecords() != wantRecords || eng2.Seq() != 3 {
		t.Fatalf("after reopen: records=%d seq=%d, want %d/3", eng2.Core().NumRecords(), eng2.Seq(), wantRecords)
	}
	if err := eng2.Core().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryWithoutClose models kill -9: the first engine is abandoned
// with its WAL full and no final checkpoint; a second Open on the same
// directory must replay to the exact acknowledged state.
func TestRecoveryWithoutClose(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	st, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(st, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Bootstrap(testRows); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(insertBatch("9", "x", "q")); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(stream.Batch{Changes: []stream.Change{
		{Kind: stream.Delete, ID: 0},
		{Kind: stream.Update, ID: 2, Values: []string{"2", "y", "r"}},
	}}); err != nil {
		t.Fatal(err)
	}
	want := fdsOf(eng)
	// No Close: the process "dies" here with two batches only in the WAL.

	st2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	eng2, err := Open(st2, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if eng2.Seq() != 2 {
		t.Fatalf("recovered seq = %d, want 2", eng2.Seq())
	}
	if got := fdsOf(eng2); got != want {
		t.Fatalf("FDs after recovery:\n got %s\nwant %s", got, want)
	}
	if err := eng2.Core().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailTruncated appends garbage after the valid WAL records — the
// classic torn write — and checks recovery truncates it instead of failing.
func TestTornTailTruncated(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	st, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(st, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Bootstrap(testRows); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(insertBatch("9", "x", "q")); err != nil {
		t.Fatal(err)
	}
	want := fdsOf(eng)
	st.Close() // abandon without checkpoint

	walPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 9, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	eng2, err := Open(st2, testOpts())
	if err != nil {
		t.Fatalf("recovery failed on torn tail: %v", err)
	}
	if eng2.Seq() != 1 || fdsOf(eng2) != want {
		t.Fatalf("recovered seq=%d FDs=%s, want 1/%s", eng2.Seq(), fdsOf(eng2), want)
	}
}

// TestWALGapRejected removes a middle WAL record and checks recovery
// refuses to silently skip it.
func TestWALGapRejected(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	st, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(st, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.Apply(insertBatch(fmt.Sprint(i), "x", "y")); err != nil {
			t.Fatal(err)
		}
	}
	st.Close() // abandon without checkpoint

	walPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := wal.Scan(data)
	if len(recs) != 3 {
		t.Fatalf("%d records, want 3", len(recs))
	}
	spliced := append(append([]byte(nil), data[:recs[0].End]...), data[recs[1].End:]...)
	if err := os.WriteFile(walPath, spliced, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := Open(st2, testOpts()); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("Open err = %v, want a WAL gap error", err)
	}
}

func TestSchemaMismatchNamed(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	st, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(st, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	opts := testOpts()
	opts.Columns = []string{"x", "y"}
	_, err = Open(st2, opts)
	if err == nil {
		t.Fatal("mismatched schema accepted")
	}
	for _, want := range []string{"a", "x", "mismatch"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestFreshStoreNeedsColumns(t *testing.T) {
	t.Parallel()
	st, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := Open(st, Options{Config: core.DefaultConfig()}); err == nil {
		t.Fatal("fresh store without columns accepted")
	}
}

func TestCorruptCheckpointRejected(t *testing.T) {
	t.Parallel()
	for _, blob := range []string{
		"{",
		`{"format":"something-else","version":1}`,
		`{"format":"dynfd-checkpoint","version":99}`,
		`{"format":"dynfd-checkpoint","version":1,"columns":["a"],"engine":null}`,
	} {
		m := faultio.NewMem()
		if err := m.WriteCheckpoint([]byte(blob)); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(m, testOpts()); err == nil {
			t.Errorf("checkpoint %q accepted", blob)
		}
	}
}

func TestCheckpointEveryResetsLog(t *testing.T) {
	t.Parallel()
	m := faultio.NewMem()
	opts := testOpts()
	opts.CheckpointEvery = 2
	eng, err := Open(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(insertBatch("1", "x", "p")); err != nil {
		t.Fatal(err)
	}
	if data, _ := m.ReadLog(); len(data) == 0 {
		t.Fatal("WAL empty after first batch; checkpoint ran early")
	}
	if _, err := eng.Apply(insertBatch("2", "y", "q")); err != nil {
		t.Fatal(err)
	}
	if data, _ := m.ReadLog(); len(data) != 0 {
		t.Fatalf("WAL holds %d bytes after auto-checkpoint, want 0", len(data))
	}
	if eng.LastCheckpointErr() != nil {
		t.Fatal(eng.LastCheckpointErr())
	}
	// The checkpoint alone must reproduce the state.
	eng2, err := Open(m.Reopen(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	if eng2.Seq() != 2 || eng2.Core().NumRecords() != 2 {
		t.Fatalf("recovered seq=%d records=%d, want 2/2", eng2.Seq(), eng2.Core().NumRecords())
	}
}

func TestBootstrapRequiresEmpty(t *testing.T) {
	t.Parallel()
	m := faultio.NewMem()
	eng, err := Open(m, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(insertBatch("1", "x", "p")); err != nil {
		t.Fatal(err)
	}
	if err := eng.Bootstrap(testRows); err == nil {
		t.Fatal("Bootstrap accepted after a batch")
	}
}

// TestAppendFailurePoisons checks the point-of-no-return rule: once a WAL
// append fails the log may end in a torn record, so the engine must refuse
// all further writes while reads keep working.
func TestAppendFailurePoisons(t *testing.T) {
	t.Parallel()
	m := faultio.NewMem()
	eng, err := Open(m, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Bootstrap(testRows); err != nil {
		t.Fatal(err)
	}
	// Fault-free so far; now swap in a log that tears mid-record. The
	// engine caches its wal.Log, so rebuild one around a Faulty wrapper.
	eng.log = wal.NewLog(&faultio.Faulty{F: m.Log(), WriteBudget: 5, SyncBudget: -1})
	if _, err := eng.Apply(insertBatch("9", "z", "r")); err == nil {
		t.Fatal("Apply succeeded through a torn WAL write")
	}
	if eng.Poisoned() == nil {
		t.Fatal("engine not poisoned after WAL append failure")
	}
	if _, err := eng.Apply(insertBatch("8", "w", "s")); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("poisoned engine Apply err = %v", err)
	}
	if err := eng.Checkpoint(); err == nil {
		t.Fatal("poisoned engine accepted a checkpoint")
	}
	if len(eng.Core().FDs()) == 0 {
		t.Fatal("no FDs readable from poisoned engine")
	}
}

// flakyCP fails checkpoint replacement while leaving the WAL healthy.
type flakyCP struct {
	*faultio.MemStorage
	fail bool
}

func (f *flakyCP) WriteCheckpoint(data []byte) error {
	if f.fail {
		return fmt.Errorf("checkpoint store offline")
	}
	return f.MemStorage.WriteCheckpoint(data)
}

// TestCheckpointFailureDoesNotFailApply: a failed automatic checkpoint is
// reported out of band, but the Apply that triggered it already made the
// batch durable in the WAL and must succeed — and recovery from the WAL
// alone reproduces the state.
func TestCheckpointFailureDoesNotFailApply(t *testing.T) {
	t.Parallel()
	st := &flakyCP{MemStorage: faultio.NewMem()}
	opts := testOpts()
	opts.CheckpointEvery = 1
	eng, err := Open(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	st.fail = true
	if _, err := eng.Apply(insertBatch("1", "x", "p")); err != nil {
		t.Fatalf("Apply failed on checkpoint error: %v", err)
	}
	if eng.LastCheckpointErr() == nil {
		t.Fatal("checkpoint failure not reported")
	}
	if _, err := eng.Apply(insertBatch("2", "y", "q")); err != nil {
		t.Fatalf("second Apply failed: %v", err)
	}
	want := fdsOf(eng)

	eng2, err := Open(st.MemStorage.Reopen(1<<20), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if eng2.Seq() != 2 || fdsOf(eng2) != want {
		t.Fatalf("recovered seq=%d FDs=%s, want 2/%s", eng2.Seq(), fdsOf(eng2), want)
	}
}

// TestStaleRecordsSkipped covers a crash between checkpoint replacement
// and log reset: the log still holds records the checkpoint already
// includes, and recovery must skip them instead of double-applying.
func TestStaleRecordsSkipped(t *testing.T) {
	t.Parallel()
	m := faultio.NewMem()
	eng, err := Open(m, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(insertBatch("1", "x", "p")); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(insertBatch("2", "y", "q")); err != nil {
		t.Fatal(err)
	}
	// Write the checkpoint by hand without resetting the log — exactly the
	// state a crash between the two steps leaves behind.
	if err := eng.writeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if data, _ := m.ReadLog(); len(data) == 0 {
		t.Fatal("test needs a non-empty log")
	}
	eng2, err := Open(m.Reopen(1<<20), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if eng2.Seq() != 2 || eng2.Core().NumRecords() != 2 {
		t.Fatalf("recovered seq=%d records=%d, want 2/2", eng2.Seq(), eng2.Core().NumRecords())
	}
	if err := eng2.Core().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
