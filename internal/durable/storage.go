// Package durable layers crash-safe persistence on top of the core DynFD
// engine (DESIGN.md §11): every applied batch is appended to a checksummed
// write-ahead log and fsynced before it is acknowledged, and checkpoints
// periodically fold the log into an atomically-replaced engine snapshot.
// Recovery loads the latest valid checkpoint, replays the WAL suffix, and
// truncates any torn tail a crash left behind — acknowledged batches are
// never lost, unacknowledged ones are never half-applied.
package durable

import (
	"fmt"
	"os"
	"path/filepath"

	"dynfd/internal/wal"
)

// Storage is the persistence surface the durable engine writes through: an
// atomically-replaceable checkpoint blob plus an appendable write-ahead
// log. DirStorage implements it on a directory; internal/faultio provides
// a crash-scripted in-memory implementation for the recovery tests.
type Storage interface {
	// ReadCheckpoint returns the current checkpoint blob, or ok=false when
	// none has ever been written.
	ReadCheckpoint() (data []byte, ok bool, err error)
	// WriteCheckpoint atomically replaces the checkpoint blob: after a
	// crash, either the previous or the new blob is read back — never a
	// mixture or a prefix.
	WriteCheckpoint(data []byte) error
	// ReadLog returns the WAL's raw contents (possibly ending in a torn
	// tail, which wal.Scan separates out).
	ReadLog() ([]byte, error)
	// Log returns the WAL file surface for appending, syncing, and
	// truncating.
	Log() wal.File
	// Close releases the storage's resources. It does not sync.
	Close() error
}

// Filenames inside a DirStorage directory. The checkpoint file keeps its
// historical name: it holds a binary checkpoint, or a JSON one written by
// an older build, and either way existing stores and tools find it there.
const (
	checkpointName = "checkpoint.json"
	checkpointTmp  = "checkpoint.json.tmp"
	walName        = "wal.log"
)

// DirStorage implements Storage on a directory holding the checkpoint
// file and wal.log. Checkpoint replacement is write-temp + fsync + rename
// + fsync of the directory, the portable atomic-replace recipe; the WAL
// file is kept open in append mode for the storage's lifetime.
type DirStorage struct {
	dir string
	log *os.File
}

// OpenDir opens (creating if necessary) a storage directory.
func OpenDir(dir string) (*DirStorage, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: creating %s: %w", dir, err)
	}
	// A crash may have left a half-written checkpoint temp file behind; it
	// was never renamed into place, so it is garbage.
	_ = os.Remove(filepath.Join(dir, checkpointTmp))
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: opening WAL: %w", err)
	}
	return &DirStorage{dir: dir, log: f}, nil
}

// Dir returns the storage directory.
func (s *DirStorage) Dir() string { return s.dir }

// ReadCheckpoint reads the checkpoint file if present.
func (s *DirStorage) ReadCheckpoint() ([]byte, bool, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, checkpointName))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("durable: reading checkpoint: %w", err)
	}
	return data, true, nil
}

// WriteCheckpoint atomically replaces the checkpoint file.
func (s *DirStorage) WriteCheckpoint(data []byte) error {
	tmp := filepath.Join(s.dir, checkpointTmp)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: checkpoint temp: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("durable: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, checkpointName)); err != nil {
		return fmt.Errorf("durable: checkpoint rename: %w", err)
	}
	return syncDir(s.dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: opening dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durable: dir sync: %w", err)
	}
	return nil
}

// ReadLog returns wal.log's current contents.
func (s *DirStorage) ReadLog() ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, walName))
	if err != nil {
		return nil, fmt.Errorf("durable: reading WAL: %w", err)
	}
	return data, nil
}

// Log returns the open WAL file.
func (s *DirStorage) Log() wal.File { return s.log }

// Close closes the WAL file handle.
func (s *DirStorage) Close() error { return s.log.Close() }
