package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"dynfd/internal/attrset"
	"dynfd/internal/canon"
	"dynfd/internal/core"
)

// A checkpoint blob is the engine state plus the WAL sequence it covers —
// recovery replays only log records with a higher sequence (DESIGN.md
// §11). Checkpoints are written in the binary layout below; JSON
// checkpoints, which stores and primaries wrote before it, still decode.
//
//	magic "\xfddynfdk\x00"
//	uvarint version, seq, epoch, epoch start
//	uvarint column count, then per column: uvarint length, bytes
//	uvarint length, then the engine Config as a JSON object
//	the engine state (core.AppendState)
//
// The magic is a sibling of the batch record's (stream) and the WAL
// control and trailer magics; its 0xfd lead byte can start no JSON text,
// so decodeCheckpoint tells the encodings apart by the magic alone. The
// Config stays JSON so that checkpoints written while the configuration
// had other fields keep loading: unknown keys are ignored. Every other
// field is canonical, and the decoder accepts nothing but what
// appendCheckpoint writes, config bytes aside.
const (
	checkpointMagic   = "\xfddynfdk\x00"
	checkpointVersion = 1

	// jsonCheckpointFormat is the format tag of a JSON checkpoint.
	jsonCheckpointFormat = "dynfd-checkpoint"
)

// ErrBadCheckpoint classifies every decodeCheckpoint failure.
var ErrBadCheckpoint = errors.New("durable: malformed checkpoint")

// checkpoint is a decoded checkpoint blob, and the layout of a JSON one.
type checkpoint struct {
	Format  string         `json:"format"`
	Version int            `json:"version"`
	Seq     uint64         `json:"seq"`
	Columns []string       `json:"columns"`
	Engine  *core.Snapshot `json:"engine"`
	// Epoch is the fencing epoch the state belongs to and EpochStart the
	// WAL sequence at which that epoch began (DESIGN.md §16). Both are 0
	// for a store that has never been promoted, so pre-failover checkpoints
	// decode unchanged.
	Epoch      uint64 `json:"epoch,omitempty"`
	EpochStart uint64 `json:"epoch_start,omitempty"`

	// config is the Config JSON of a binary checkpoint, as stored; it
	// aliases the blob.
	config []byte
}

// appendCheckpoint appends the binary checkpoint of eng to dst under the
// header fields of h (its Engine is not read).
func appendCheckpoint(dst []byte, h *checkpoint, eng *core.Engine) []byte {
	dst = append(dst, checkpointMagic...)
	for _, v := range []uint64{checkpointVersion, h.Seq, h.Epoch, h.EpochStart, uint64(len(h.Columns))} {
		dst = binary.AppendUvarint(dst, v)
	}
	for _, c := range h.Columns {
		dst = binary.AppendUvarint(dst, uint64(len(c)))
		dst = append(dst, c...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(h.config)))
	dst = append(dst, h.config...)
	return eng.AppendState(dst)
}

// decodeCheckpoint parses a binary or a JSON checkpoint and checks its
// header. It never panics; every failure wraps ErrBadCheckpoint.
func decodeCheckpoint(blob []byte) (*checkpoint, error) {
	if !bytes.HasPrefix(blob, []byte(checkpointMagic)) {
		return decodeJSONCheckpoint(blob)
	}
	r := canon.NewReader(blob[len(checkpointMagic):], ErrBadCheckpoint)
	if v := r.Uvarint(math.MaxUint64, "version"); r.Err == nil && v != checkpointVersion {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrBadCheckpoint, v, checkpointVersion)
	}
	cp := &checkpoint{}
	cp.Seq = r.Uvarint(math.MaxUint64, "seq")
	cp.Epoch = r.Uvarint(math.MaxUint64, "epoch")
	cp.EpochStart = r.Uvarint(math.MaxUint64, "epoch start")
	n := r.Uvarint(attrset.MaxAttrs, "column count")
	if r.Err == nil && n == 0 {
		r.Fail("no columns")
	}
	for i := uint64(0); i < n && r.Err == nil; i++ {
		cp.Columns = append(cp.Columns, string(r.Bytes(r.Uvarint(uint64(len(r.B)), "column length"), "column")))
	}
	cp.config = r.Bytes(r.Uvarint(uint64(len(r.B)), "config length"), "config")
	if r.Err != nil {
		return nil, r.Err
	}
	snap, err := core.DecodeState(r.B, len(cp.Columns))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadCheckpoint, err)
	}
	if err := json.Unmarshal(cp.config, &snap.Config); err != nil {
		return nil, fmt.Errorf("%w: config: %v", ErrBadCheckpoint, err)
	}
	cp.Engine = snap
	return cp, nil
}

// decodeJSONCheckpoint parses a checkpoint in the JSON layout.
func decodeJSONCheckpoint(blob []byte) (*checkpoint, error) {
	var cp checkpoint
	if err := json.Unmarshal(blob, &cp); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if cp.Format != jsonCheckpointFormat {
		return nil, fmt.Errorf("%w: format %q, want %q", ErrBadCheckpoint, cp.Format, jsonCheckpointFormat)
	}
	if cp.Version != 1 {
		return nil, fmt.Errorf("%w: unsupported JSON version %d (want 1)", ErrBadCheckpoint, cp.Version)
	}
	if cp.Engine == nil || len(cp.Columns) != cp.Engine.NumAttrs {
		return nil, fmt.Errorf("%w: schema inconsistent", ErrBadCheckpoint)
	}
	return &cp, nil
}
