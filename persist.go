package dynfd

import (
	"encoding/json"
	"fmt"
	"io"

	"dynfd/internal/core"
)

// snapshotFormat identifies the persistence format; version bumps guard
// incompatible layout changes.
const (
	snapshotFormat  = "dynfd-snapshot"
	snapshotVersion = 1
)

type monitorSnapshot struct {
	Format  string         `json:"format"`
	Version int            `json:"version"`
	Columns []string       `json:"columns"`
	Engine  *core.Snapshot `json:"engine"`
}

// Save serializes the monitor's complete state — tuples with their ids,
// both dependency covers with witnesses, and the configuration — as JSON.
// A saved monitor can be resumed with LoadMonitor without re-profiling.
func (m *Monitor) Save(w io.Writer) error {
	snap := monitorSnapshot{
		Format:  snapshotFormat,
		Version: snapshotVersion,
		Columns: m.columns,
		Engine:  m.engine.Snapshot(),
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("dynfd: saving monitor: %w", err)
	}
	return nil
}

// Save serializes the durable monitor's current state in the same format
// as Monitor.Save, so LoadMonitor can resume it as an in-memory Monitor.
// Like Apply, it must not run concurrently with mutations.
func (m *DurableMonitor) Save(w io.Writer) error { return m.ro.Save(w) }

// LoadMonitor resumes a monitor previously written with Save. The restored
// monitor continues exactly where the saved one stopped: record ids,
// covers, pruning witnesses, and configuration are preserved, and the
// dual-cover consistency of the snapshot is verified. The relation is
// rebuilt by the Pli store's bulk loader (DESIGN.md §10): its rows front
// end codes each attribute through the map that becomes its inverted
// index, attributes fanned out across GOMAXPROCS. A Workers value in the
// saved configuration is ignored.
func LoadMonitor(r io.Reader) (*Monitor, error) {
	var snap monitorSnapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("dynfd: loading monitor: %w", err)
	}
	if snap.Format != snapshotFormat {
		return nil, fmt.Errorf("dynfd: not a monitor snapshot (format %q, want %q)", snap.Format, snapshotFormat)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("dynfd: unsupported snapshot version %d (want %d)", snap.Version, snapshotVersion)
	}
	if snap.Engine == nil || len(snap.Columns) != snap.Engine.NumAttrs {
		return nil, fmt.Errorf("dynfd: snapshot schema inconsistent")
	}
	engine, err := core.Restore(snap.Engine)
	if err != nil {
		return nil, fmt.Errorf("dynfd: loading monitor: %w", err)
	}
	m := &Monitor{
		columns:  append([]string(nil), snap.Columns...),
		colIndex: make(map[string]int, len(snap.Columns)),
		engine:   engine,
		booted:   true,
	}
	for i, c := range m.columns {
		m.colIndex[c] = i
	}
	return m, nil
}
