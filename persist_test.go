package dynfd

import (
	"bytes"
	"encoding/binary"
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

// retiredConfigKeys puts the engine-config keys that older releases wrote
// ("DisableStealing", "StealChunk", "DeltaPruning") back into a
// JSON-decoded config object, as a file from such a release would carry
// them.
func retiredConfigKeys(cfg map[string]any) {
	cfg["DisableStealing"] = true
	cfg["StealChunk"] = 1
	cfg["DeltaPruning"] = true
}

// decodeJSONDoc decodes a JSON object keeping numbers exact.
func decodeJSONDoc(t *testing.T, blob []byte) map[string]any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// withRetiredConfigKeys re-encodes a JSON snapshot or checkpoint blob with
// the retired config keys put back in.
func withRetiredConfigKeys(t *testing.T, blob []byte) []byte {
	t.Helper()
	doc := decodeJSONDoc(t, blob)
	engine, ok := doc["engine"].(map[string]any)
	if !ok {
		t.Fatalf("blob has no engine object: %.200s", blob)
	}
	cfg, ok := engine["config"].(map[string]any)
	if !ok {
		t.Fatalf("blob has no engine config: %.200s", blob)
	}
	retiredConfigKeys(cfg)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// legacyCheckpoint builds the JSON checkpoint an older release would have
// written for mon's current state: the monitor's JSON snapshot under the
// checkpoint format tag, with the sequence it covers.
func legacyCheckpoint(t *testing.T, mon *DurableMonitor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := mon.Save(&buf); err != nil {
		t.Fatal(err)
	}
	doc := decodeJSONDoc(t, buf.Bytes())
	doc["format"] = "dynfd-checkpoint"
	doc["seq"] = mon.Seq()
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// binaryWithRetiredConfigKeys rewrites the config JSON embedded in a
// binary checkpoint (DESIGN.md §11: magic; version, seq, epoch, epoch
// start; columns; length-prefixed config; engine state) with the retired
// config keys put back in.
func binaryWithRetiredConfigKeys(t *testing.T, blob []byte) []byte {
	t.Helper()
	const magic = "\xfddynfdk\x00"
	if !bytes.HasPrefix(blob, []byte(magic)) {
		t.Fatalf("not a binary checkpoint: %q", blob[:min(len(blob), 16)])
	}
	off := len(magic)
	uvarint := func() uint64 {
		v, n := binary.Uvarint(blob[off:])
		if n <= 0 {
			t.Fatalf("bad varint at offset %d", off)
		}
		off += n
		return v
	}
	for range 4 { // version, seq, epoch, epoch start
		uvarint()
	}
	for n := uvarint(); n > 0; n-- {
		off += int(uvarint())
	}
	head := off
	end := off + int(uvarint())
	cfg := decodeJSONDoc(t, blob[off:end])
	retiredConfigKeys(cfg)
	js, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := binary.AppendUvarint(append([]byte(nil), blob[:head]...), uint64(len(js)))
	return append(append(out, js...), blob[end:]...)
}

// TestLoadMonitorIgnoresSavedWorkers: snapshots written while the engine
// config carried a worker count ("Workers": 4) still load, with the covers
// they were saved with, and the restored monitor evolves like the saved
// one.
func TestLoadMonitorIgnoresSavedWorkers(t *testing.T) {
	t.Parallel()
	m := newPaperMonitor(t)
	if _, err := m.Apply(Delete(2), Insert("Marie", "Scott", "14467", "Potsdam")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	doc := decodeJSONDoc(t, buf.Bytes())
	doc["engine"].(map[string]any)["config"].(map[string]any)["Workers"] = 4
	blob, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := LoadMonitor(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.FDs(), m2.FDs()) || !reflect.DeepEqual(m.NonFDs(), m2.NonFDs()) {
		t.Errorf("covers differ after load:\n%v / %v\n%v / %v", m.FDs(), m.NonFDs(), m2.FDs(), m2.NonFDs())
	}
	batch := []Change{Insert("Zoe", "King", "99999", "Potsdam"), Delete(0)}
	d1, err := m.Apply(batch...)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := m2.Apply(batch...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Errorf("diffs differ after load: %+v vs %+v", d1, d2)
	}
}

// TestRestoreIgnoresRetiredConfigKeys pins that monitor snapshots and
// durable checkpoints written while the engine config still had the
// stealing and delta-pruning knobs keep loading, with identical covers:
// the decoders ignore unknown fields.
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
	// The durable monitor writes binary checkpoints, whose config is a
	// JSON object too; the JSON checkpoints of older releases still load.
	for _, tc := range []struct {
		name    string
		rewrite func(t *testing.T, mon *DurableMonitor, stored []byte) []byte
	}{
		{"checkpoint", func(t *testing.T, mon *DurableMonitor, _ []byte) []byte {
			return withRetiredConfigKeys(t, legacyCheckpoint(t, mon))
		}},
		{"binary_checkpoint", func(t *testing.T, _ *DurableMonitor, stored []byte) []byte {
			return binaryWithRetiredConfigKeys(t, stored)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
			path := filepath.Join(dir, "checkpoint.json")
			stored, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			blob := tc.rewrite(t, mon, stored)
			if err := mon.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, blob, 0o644); err != nil {
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
}
