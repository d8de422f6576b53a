package dynfd

import (
	"fmt"
	"testing"
)

var durableRows = [][]string{
	{"14482", "Potsdam", "BB"},
	{"14469", "Potsdam", "BB"},
	{"10115", "Berlin", "BE"},
	{"80331", "Munich", "BY"},
}

func TestDurableMonitorRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cols := []string{"zip", "city", "state"}
	mon, err := OpenDurable(dir, cols, WithCheckpointEvery(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Bootstrap(durableRows); err != nil {
		t.Fatal(err)
	}
	diff, err := mon.Apply(Insert("10117", "Berlin", "BE"))
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.InsertedIDs) != 1 {
		t.Fatalf("InsertedIDs = %v", diff.InsertedIDs)
	}
	if _, err := mon.Apply(Delete(diff.InsertedIDs[0]), Insert("04109", "Leipzig", "SN")); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(mon.FDs())
	wantRecords := mon.NumRecords()
	if err := mon.Err(); err != nil {
		t.Fatal(err)
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurable(dir, nil) // schema adopted from the store
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := fmt.Sprint(re.FDs()); got != want {
		t.Fatalf("FDs after reopen:\n got %s\nwant %s", got, want)
	}
	if re.NumRecords() != wantRecords || re.Seq() != 2 {
		t.Fatalf("after reopen: records=%d seq=%d, want %d/2", re.NumRecords(), re.Seq(), wantRecords)
	}
	if got := re.Columns(); fmt.Sprint(got) != fmt.Sprint(cols) {
		t.Fatalf("recovered columns %v", got)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if ok, err := re.Holds([]string{"zip"}, "city"); err != nil || !ok {
		t.Fatalf("Holds(zip -> city) = %v, %v", ok, err)
	}
}

// TestOpenReplica: a follower opens at a primary's checkpoint blob with
// its FDs, and OpenReplica never opens an existing store instead — not
// with a nil blob, and not over a directory that already holds one.
func TestOpenReplica(t *testing.T) {
	t.Parallel()
	primary, err := OpenDurable(t.TempDir(), []string{"zip", "city", "state"})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if err := primary.Bootstrap(durableRows); err != nil {
		t.Fatal(err)
	}
	blob, _, err := primary.CheckpointBlob(0)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	follower, err := OpenReplica(dir, blob)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(follower.FDs()), fmt.Sprint(primary.FDs()); got != want {
		t.Fatalf("follower FDs:\n got %s\nwant %s", got, want)
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReplica(t.TempDir(), nil); err == nil {
		t.Fatal("nil blob accepted on an empty directory")
	}
	for _, b := range [][]byte{nil, blob} {
		if mon, err := OpenReplica(dir, b); err == nil {
			mon.Close()
			t.Fatalf("directory holding a store reopened with blob of %d bytes", len(b))
		}
	}
}

// TestDurableMonitorSurvivesKill models kill -9: the first monitor is
// abandoned without Close — no final checkpoint, acknowledged batches
// only in the WAL — and a reopen of the directory must resume with
// identical FDs and zero lost batches.
func TestDurableMonitorSurvivesKill(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cols := []string{"zip", "city", "state"}
	mon, err := OpenDurable(dir, cols, WithCheckpointEvery(-1)) // no checkpoints: WAL only
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Bootstrap(durableRows); err != nil {
		t.Fatal(err)
	}
	acked := 0
	for i := 0; i < 5; i++ {
		if _, err := mon.Apply(Insert(fmt.Sprintf("%05d", i), "Berlin", "BE")); err != nil {
			t.Fatal(err)
		}
		acked++
	}
	want := fmt.Sprint(mon.FDs())
	wantNon := fmt.Sprint(mon.NonFDs())
	wantRecords := mon.NumRecords()
	// Process "dies" here: mon is dropped without Close.

	re, err := OpenDurable(dir, cols)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer re.Close()
	if got := int(re.Seq()); got != acked {
		t.Fatalf("recovered %d batches, acked %d", got, acked)
	}
	if got := fmt.Sprint(re.FDs()); got != want {
		t.Fatalf("FDs after kill+recovery:\n got %s\nwant %s", got, want)
	}
	if got := fmt.Sprint(re.NonFDs()); got != wantNon {
		t.Fatalf("NonFDs after kill+recovery:\n got %s\nwant %s", got, wantNon)
	}
	if re.NumRecords() != wantRecords {
		t.Fatalf("records = %d, want %d", re.NumRecords(), wantRecords)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The recovered monitor keeps working durably.
	if _, err := re.Apply(Insert("99999", "Hamburg", "HH")); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDurableSchemaMismatch(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	mon, err := OpenDurable(dir, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir, []string{"x", "y", "z"}); err == nil {
		t.Fatal("schema mismatch accepted")
	}
	if _, err := OpenDurable(t.TempDir(), []string{"a", "a"}); err == nil {
		t.Fatal("duplicate columns accepted for a new store")
	}
}
