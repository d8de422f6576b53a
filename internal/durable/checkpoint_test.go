package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dynfd/internal/core"
	"dynfd/internal/datagen"
	"dynfd/internal/faultio"
)

// jsonCheckpoint encodes e's state as a JSON checkpoint, the format
// stores and primaries wrote before binary checkpoints.
func jsonCheckpoint(tb testing.TB, e *Engine) []byte {
	tb.Helper()
	blob, err := json.Marshal(checkpoint{
		Format:     jsonCheckpointFormat,
		Version:    1,
		Seq:        e.seq.Load(),
		Columns:    e.columns,
		Engine:     e.eng.Snapshot(),
		Epoch:      e.epoch.Load(),
		EpochStart: e.epochStart.Load(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// storedCheckpoint returns the checkpoint blob st holds.
func storedCheckpoint(tb testing.TB, st Storage) []byte {
	tb.Helper()
	blob, ok, err := st.ReadCheckpoint()
	if err != nil || !ok {
		tb.Fatalf("reading checkpoint: ok=%v err=%v", ok, err)
	}
	return blob
}

func isBinaryCheckpoint(blob []byte) bool { return bytes.HasPrefix(blob, []byte(checkpointMagic)) }

// sameState fails unless a and b hold the same sequence, covers and
// records.
func sameState(t *testing.T, a, b *Engine) {
	t.Helper()
	if a.Seq() != b.Seq() || coversOf(a) != coversOf(b) {
		t.Fatalf("seq %d covers %s, want seq %d covers %s", a.Seq(), coversOf(a), b.Seq(), coversOf(b))
	}
	if a.NumRecords() != b.NumRecords() {
		t.Fatalf("%d records, want %d", a.NumRecords(), b.NumRecords())
	}
	b.Core().ForEachRecord(func(id int64, want []string) bool {
		if got, ok := a.Core().Record(id); !ok || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("record %d = %q (%v), want %q", id, got, ok, want)
		}
		return true
	})
}

// TestCheckpointsAreBinary: every checkpoint the engine writes — the
// fresh store's, Checkpoint's and Bootstrap's — is binary, and decodes to
// the state it was written from.
func TestCheckpointsAreBinary(t *testing.T) {
	t.Parallel()
	mem := faultio.NewMem()
	eng, err := Open(mem, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !isBinaryCheckpoint(storedCheckpoint(t, mem)) {
		t.Fatal("fresh store wrote a non-binary checkpoint")
	}
	if err := eng.Bootstrap(testRows); err != nil {
		t.Fatal(err)
	}
	if !isBinaryCheckpoint(storedCheckpoint(t, mem)) {
		t.Fatal("Bootstrap wrote a non-binary checkpoint")
	}
	for _, b := range recordBatches() {
		if _, err := eng.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	blob := storedCheckpoint(t, mem)
	if !isBinaryCheckpoint(blob) {
		t.Fatal("Checkpoint wrote a non-binary checkpoint")
	}
	if len(blob) >= len(jsonCheckpoint(t, eng)) {
		t.Errorf("binary checkpoint %d bytes, JSON %d", len(blob), len(jsonCheckpoint(t, eng)))
	}
	re, err := Open(mem.Reopen(0), Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, re, eng)
}

// TestLegacyJSONCheckpointOpens: a store whose checkpoint is JSON and
// whose WAL suffix holds binary batch records, as a store upgraded
// between a checkpoint and its next one holds, recovers to the state of
// the engine that wrote them, and the checkpoint it folds the suffix into
// is binary.
func TestLegacyJSONCheckpointOpens(t *testing.T) {
	t.Parallel()
	ref := faultio.NewMem()
	eng, err := Open(ref, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Bootstrap(testRows); err != nil {
		t.Fatal(err)
	}
	batches := recordBatches()
	for _, b := range batches[:2] {
		if _, err := eng.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	legacy := jsonCheckpoint(t, eng)
	for _, b := range batches[2:] {
		if _, err := eng.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	suffix, err := ref.ReadLog()
	if err != nil || len(suffix) == 0 {
		t.Fatalf("reference WAL suffix: %d bytes, err %v", len(suffix), err)
	}

	mem := faultio.NewMem()
	if err := mem.WriteCheckpoint(legacy); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Log().Write(suffix); err != nil {
		t.Fatal(err)
	}
	if err := mem.Log().Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := Open(mem, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, got, eng)
	if !isBinaryCheckpoint(storedCheckpoint(t, mem)) {
		t.Fatal("recovery folded the WAL suffix into a non-binary checkpoint")
	}
	if err := got.Core().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOlderPrimaryJSONCheckpoint: a follower seeds from, and installs, the
// JSON checkpoint of a primary that predates binary checkpoints, reaching
// the primary's state either way.
func TestOlderPrimaryJSONCheckpoint(t *testing.T) {
	t.Parallel()
	primary, err := Open(faultio.NewMem(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.Bootstrap(testRows); err != nil {
		t.Fatal(err)
	}
	for _, b := range recordBatches() {
		if _, err := primary.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	blob := jsonCheckpoint(t, primary)

	t.Run("seed", func(t *testing.T) {
		mem := faultio.NewMem()
		follower, err := OpenSeeded(mem, blob, Options{CheckpointEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		sameState(t, follower, primary)
		re, err := Open(mem.Reopen(0), testOpts())
		if err != nil {
			t.Fatal(err)
		}
		sameState(t, re, primary)
		if _, err := OpenSeeded(mem.Reopen(0), blob, Options{}); err == nil || !strings.Contains(err.Error(), "already holds a checkpoint") {
			t.Fatalf("seeding a store that holds a checkpoint: err = %v", err)
		}
	})
	t.Run("install", func(t *testing.T) {
		mem := faultio.NewMem()
		follower, err := Open(mem, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		if err := follower.InstallCheckpoint(blob); err != nil {
			t.Fatal(err)
		}
		sameState(t, follower, primary)
		re, err := Open(mem.Reopen(0), testOpts())
		if err != nil {
			t.Fatal(err)
		}
		sameState(t, re, primary)
	})
}

// fuzzRecordLimit bounds the next id of the checkpoints the fuzz target
// restores: Restore allocates the record arena up to the largest record
// id, which lies below the next id.
const fuzzRecordLimit = 1 << 16

// FuzzCheckpoint: checkpoints arrive over the replication wire, so the
// decoder is an untrusted decode surface. It must never panic, and must
// reject with ErrBadCheckpoint. A binary blob it accepts must be strict —
// every truncation and every appended byte rejected — and, once restored,
// re-encode to the same bytes.
func FuzzCheckpoint(f *testing.F) {
	mem := faultio.NewMem()
	eng, err := Open(mem, testOpts())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(storedCheckpoint(f, mem))
	f.Add(jsonCheckpoint(f, eng))
	for _, b := range recordBatches() {
		if _, err := eng.Apply(b); err != nil {
			f.Fatal(err)
		}
	}
	if err := eng.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	blob := storedCheckpoint(f, mem)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(jsonCheckpoint(f, eng))
	f.Add([]byte{})
	f.Add([]byte(checkpointMagic))

	f.Fuzz(func(t *testing.T, blob []byte) {
		cp, err := decodeCheckpoint(blob)
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("rejected with an error outside ErrBadCheckpoint: %v", err)
			}
			return
		}
		if !isBinaryCheckpoint(blob) {
			return
		}
		for n := range blob {
			if _, err := decodeCheckpoint(blob[:n]); err == nil {
				t.Fatalf("truncation to %d of %d bytes accepted", n, len(blob))
			}
		}
		for c := 0; c < 256; c++ {
			if _, err := decodeCheckpoint(append(blob[:len(blob):len(blob)], byte(c))); err == nil {
				t.Fatalf("appended byte %#x accepted", c)
			}
		}
		if cp.Engine.NextID >= fuzzRecordLimit {
			return
		}
		eng, err := core.Restore(cp.Engine)
		if err != nil {
			return
		}
		if got := appendCheckpoint(nil, cp, eng); !bytes.Equal(got, blob) {
			t.Fatalf("accepted blob re-encodes differently:\n got %x\nwant %x", got, blob)
		}
	})
}

// BenchmarkCheckpointCodec encodes and decodes the checkpoint of a
// bootstrapped artist ×0.2 tenant (10,000 rows × 18 columns), the one the
// service ledger stands up, as a binary checkpoint and as the JSON one
// written before, and restores an engine from the decoded state.
func BenchmarkCheckpointCodec(b *testing.B) {
	p, err := datagen.ByName("artist")
	if err != nil {
		b.Fatal(err)
	}
	p = p.Scaled(0.2)
	p.Changes = 0
	ds, err := datagen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Workers = -1
	mem := faultio.NewMem()
	eng, err := Open(mem, Options{Columns: ds.Relation.Columns, Config: cfg, CheckpointEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Bootstrap(ds.Relation.Rows); err != nil {
		b.Fatal(err)
	}
	bin := storedCheckpoint(b, mem)
	js := jsonCheckpoint(b, eng)
	for _, c := range []struct {
		name   string
		blob   []byte
		encode func() []byte
	}{
		{"binary", bin, func() []byte {
			config, err := json.Marshal(eng.eng.Config())
			if err != nil {
				b.Fatal(err)
			}
			return appendCheckpoint(nil, &checkpoint{Seq: eng.Seq(), Columns: eng.columns, config: config}, eng.eng)
		}},
		{"json", js, func() []byte { return jsonCheckpoint(b, eng) }},
	} {
		b.Run("codec="+c.name+"/op=encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.blob)))
			for i := 0; i < b.N; i++ {
				blobSink = c.encode()
			}
			b.ReportMetric(float64(len(blobSink)), "blob_bytes")
		})
		b.Run("codec="+c.name+"/op=decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.blob)))
			for i := 0; i < b.N; i++ {
				if _, err := decodeCheckpoint(c.blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("op=restore", func(b *testing.B) {
		cp, err := decodeCheckpoint(bin)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Restore(cp.Engine); err != nil {
				b.Fatal(err)
			}
		}
	})
}

var blobSink []byte
