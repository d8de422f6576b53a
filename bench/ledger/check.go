package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"dynfd/internal/dataset"
	"dynfd/internal/fd"
	"dynfd/internal/hyfd"
	"dynfd/internal/runtime"
)

// oracleFDs renders the minimal FDs static HyFD finds on rel.
func oracleFDs(rel *dataset.Relation) ([]string, error) {
	fds, err := hyfd.DiscoverFDs(rel)
	if err != nil {
		return nil, err
	}
	return render(fds, rel.Columns), nil
}

func render(fds []fd.FD, columns []string) []string {
	out := make([]string, len(fds))
	for i, f := range fds {
		out[i] = f.Names(columns)
	}
	sort.Strings(out)
	return out
}

// servedFDs is the primary's answer to GET …/fds.
func servedFDs(c *client) ([]string, error) {
	status, body, err := c.do(http.MethodGet, "/v1/tenants/"+tenantName+"/fds", nil, readHeader, -1)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /fds: status %d: %.200s", status, body)
	}
	var r struct {
		FDs []struct {
			Rendered string `json:"rendered"`
		} `json:"fds"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("GET /fds: %v", err)
	}
	out := make([]string, len(r.FDs))
	for i, f := range r.FDs {
		out[i] = f.Rendered
	}
	sort.Strings(out)
	return out, nil
}

// published is a runtime's published state for the tenant.
type published struct {
	seq     uint64
	records int
	fds     []string
}

func publishedState(rt *runtime.Runtime) (published, error) {
	snap, _, err := rt.Snapshot(tenantName)
	if err != nil {
		return published{}, err
	}
	var fds []string
	for _, f := range snap.FDs() {
		fds = append(fds, snap.FormatFD(f))
	}
	sort.Strings(fds)
	return published{seq: snap.Seq(), records: snap.NumRecords(), fds: fds}, nil
}

// sameFDs reports the first difference between two sorted FD lists.
func sameFDs(what string, got, want []string) error {
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return nil
	}
	g := make(map[string]bool, len(got))
	for _, f := range got {
		g[f] = true
	}
	w := make(map[string]bool, len(want))
	for _, f := range want {
		w[f] = true
	}
	var missing, extra []string
	for _, f := range want {
		if !g[f] {
			missing = append(missing, f)
		}
	}
	for _, f := range got {
		if !w[f] {
			extra = append(extra, f)
		}
	}
	return fmt.Errorf("%s: %d FDs, want %d; missing %q, extra %q", what, len(got), len(want), head(missing), head(extra))
}

func head(xs []string) []string {
	if len(xs) > 3 {
		return xs[:3]
	}
	return xs
}

// gate is the correctness gate of a measured phase: it rebuilds the
// relation from the acknowledged history, runs the HyFD oracle on it,
// and checks the stack against it. It returns the oracle's FDs.
func gate(s *stack, c *client, w workload, in *inputs, lr *loadResult) ([]string, []string, error) {
	rel, err := in.finalRelation(w, lr.applied())
	if err != nil {
		return nil, nil, err
	}
	want, err := oracleFDs(rel)
	if err != nil {
		return nil, nil, err
	}
	return want, checkStack(s, c, rel, want), nil
}

// checkStack is the correctness gate of a measured phase, run after it:
// the primary's GET /fds must equal HyFD on the relation rebuilt from
// the acknowledged history, and the follower must serve the primary's
// sequence, record count, and FDs.
func checkStack(s *stack, c *client, rel *dataset.Relation, want []string) []string {
	var problems []string
	served, err := servedFDs(c)
	if err != nil {
		problems = append(problems, err.Error())
	} else if err := sameFDs("primary GET /fds", served, want); err != nil {
		problems = append(problems, err.Error())
	}
	p, err := publishedState(s.primary)
	if err != nil {
		return append(problems, err.Error())
	}
	if p.records != len(rel.Rows) {
		problems = append(problems, fmt.Sprintf("primary holds %d records, history has %d", p.records, len(rel.Rows)))
	}
	f, err := publishedState(s.follower)
	if err != nil {
		return append(problems, err.Error())
	}
	if f.seq != p.seq || f.records != p.records {
		problems = append(problems, fmt.Sprintf("follower at seq %d with %d records, primary at seq %d with %d", f.seq, f.records, p.seq, p.records))
	}
	if err := sameFDs("follower FDs", f.fds, p.fds); err != nil {
		problems = append(problems, err.Error())
	}
	return problems
}
