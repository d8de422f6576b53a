package dynfd

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	t.Parallel()
	m := newPaperMonitor(t)
	if _, err := m.Apply(Delete(2), Insert("Marie", "Scott", "14467", "Potsdam")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadMonitor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Columns(), m2.Columns()) {
		t.Error("columns differ")
	}
	if !reflect.DeepEqual(m.FDs(), m2.FDs()) {
		t.Errorf("FDs differ:\n%v\n%v", m.FDs(), m2.FDs())
	}
	if !reflect.DeepEqual(m.NonFDs(), m2.NonFDs()) {
		t.Error("NonFDs differ")
	}
	if m.NumRecords() != m2.NumRecords() {
		t.Error("record counts differ")
	}

	// Both monitors must evolve identically from here.
	batch := []Change{
		Insert("Zoe", "King", "99999", "Potsdam"),
		Delete(0),
	}
	d1, err := m.Apply(batch...)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := m2.Apply(batch...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Errorf("diffs diverge:\n%+v\n%+v", d1, d2)
	}
	if !reflect.DeepEqual(m.FDs(), m2.FDs()) {
		t.Error("FDs diverge after post-restore batch")
	}
	// Record ids must have been preserved across the round trip.
	v1, ok1 := m.Record(1)
	v2, ok2 := m2.Record(1)
	if !ok1 || !ok2 || !reflect.DeepEqual(v1, v2) {
		t.Error("record ids not preserved")
	}
}

func TestLoadMonitorRejectsGarbage(t *testing.T) {
	t.Parallel()
	cases := []string{
		``,
		`{"format":"something-else","version":1}`,
		`{"format":"dynfd-snapshot","version":99}`,
		`{"format":"dynfd-snapshot","version":1,"columns":["a"],"engine":null}`,
		`{"format":"dynfd-snapshot","version":1,"columns":["a","b"],"engine":{"num_attrs":1}}`,
	}
	for _, in := range cases {
		if _, err := LoadMonitor(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestLoadMonitorRejectsInconsistentCovers(t *testing.T) {
	t.Parallel()
	// Hand-crafted snapshot whose covers are not duals: the positive cover
	// says ∅→b holds but the negative cover claims a→b is a maximal non-FD.
	in := `{"format":"dynfd-snapshot","version":1,"columns":["a","b"],
		"engine":{"num_attrs":2,"next_id":0,"records":null,
		"fds":[{"lhs":[],"rhs":1}],
		"non_fds":[{"lhs":[0],"rhs":1}],
		"config":{}}}`
	if _, err := LoadMonitor(strings.NewReader(in)); err == nil {
		t.Error("inconsistent covers accepted")
	}
}

func TestLoadMonitorRejectsBadRecords(t *testing.T) {
	t.Parallel()
	in := `{"format":"dynfd-snapshot","version":1,"columns":["a","b"],
		"engine":{"num_attrs":2,"next_id":0,"records":[{"id":5,"values":["x","y"]},{"id":3,"values":["p","q"]}],
		"fds":[],"non_fds":[],"config":{}}}`
	if _, err := LoadMonitor(strings.NewReader(in)); err == nil {
		t.Error("non-ascending record ids accepted")
	}
	in = `{"format":"dynfd-snapshot","version":1,"columns":["a","b"],
		"engine":{"num_attrs":2,"next_id":1,"records":[{"id":0,"values":["x"]}],
		"fds":[],"non_fds":[],"config":{}}}`
	if _, err := LoadMonitor(strings.NewReader(in)); err == nil {
		t.Error("wrong-arity record accepted")
	}
	in = `{"format":"dynfd-snapshot","version":1,"columns":["a","b"],
		"engine":{"num_attrs":2,"next_id":1,"records":null,
		"fds":[{"lhs":[7],"rhs":1}],"non_fds":[],"config":{}}}`
	if _, err := LoadMonitor(strings.NewReader(in)); err == nil {
		t.Error("out-of-range attribute accepted")
	}
}

func TestSaveLoadPreservesWitnesses(t *testing.T) {
	t.Parallel()
	// After a batch that turns FDs invalid, the negative cover carries
	// violation witnesses; a restore must keep them so validation pruning
	// keeps skipping.
	m := newPaperMonitor(t)
	if _, err := m.Apply(Insert("Max", "Jones", "14482", "Frankfurt")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "witness") {
		t.Error("snapshot carries no witnesses")
	}
	m2, err := LoadMonitor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// A delete of an unrelated record should mostly skip validations via
	// the restored witnesses.
	if _, err := m2.Apply(Delete(3)); err != nil {
		t.Fatal(err)
	}
	if m2.Stats().SkippedValidations == 0 {
		t.Error("restored monitor skipped no validations; witnesses lost")
	}
}

// withRetiredConfigKeys re-encodes a JSON snapshot or checkpoint blob with
// the engine-config keys that older releases wrote ("DisableStealing",
// "StealChunk") put back in, as a file from such a release would carry.
func withRetiredConfigKeys(t *testing.T, blob []byte) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	engine, ok := doc["engine"].(map[string]any)
	if !ok {
		t.Fatalf("blob has no engine object: %.200s", blob)
	}
	cfg, ok := engine["config"].(map[string]any)
	if !ok {
		t.Fatalf("blob has no engine config: %.200s", blob)
	}
	cfg["DisableStealing"] = true
	cfg["StealChunk"] = 1
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRestoreIgnoresRetiredConfigKeys pins that monitor snapshots and
// durable checkpoints written while the engine config still had the
// stealing knobs keep loading, with identical covers: the decoders ignore
// unknown fields.
func TestRestoreIgnoresRetiredConfigKeys(t *testing.T) {
	t.Parallel()
	t.Run("snapshot", func(t *testing.T) {
		t.Parallel()
		m := newPaperMonitor(t)
		if _, err := m.Apply(Delete(2), Insert("Marie", "Scott", "14467", "Potsdam")); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		m2, err := LoadMonitor(bytes.NewReader(withRetiredConfigKeys(t, buf.Bytes())))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m.FDs(), m2.FDs()) || !reflect.DeepEqual(m.NonFDs(), m2.NonFDs()) {
			t.Errorf("covers differ after load:\n%v / %v\n%v / %v", m.FDs(), m.NonFDs(), m2.FDs(), m2.NonFDs())
		}
	})
	t.Run("checkpoint", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		mon, err := OpenDurable(dir, []string{"zip", "city", "state"})
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.Bootstrap(durableRows); err != nil {
			t.Fatal(err)
		}
		if _, err := mon.Apply(Insert("10117", "Berlin", "BE"), Delete(1)); err != nil {
			t.Fatal(err)
		}
		if err := mon.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		wantFDs, wantNonFDs := mon.FDs(), mon.NonFDs()
		if err := mon.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "checkpoint.json")
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, withRetiredConfigKeys(t, blob), 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenDurable(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if !reflect.DeepEqual(wantFDs, re.FDs()) || !reflect.DeepEqual(wantNonFDs, re.NonFDs()) {
			t.Errorf("covers differ after reopen:\n%v / %v\n%v / %v", wantFDs, wantNonFDs, re.FDs(), re.NonFDs())
		}
		if err := re.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
