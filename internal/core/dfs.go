package core

import (
	"dynfd/internal/fd"
	"dynfd/internal/induct"
	"dynfd/internal/validate"
)

// depthFirstSearches implements the optimistic depth-first searches of
// paper §5.3: when a level of the delete-side sweep turns many non-FDs
// into FDs, their generalization chains can run for many levels. For a
// sample of the newly valid seed FDs, the search eagerly chases valid
// generalizations depth-first (Algorithm 5) and deduces the cover updates
// from every valid FD found (Algorithm 6). The remaining seeds stay with
// the breadth-first sweep, which the paper found more effective for the
// common small-change case.
func (e *Engine) depthFirstSearches(validFds []fd.FD) {
	e.stats.DepthFirstSearchRuns++
	n := int(e.cfg.DFSSampleRate * float64(len(validFds)))
	if n < 1 {
		n = 1
	}
	// Engine-held and cleared per run; only the engine goroutine searches.
	if e.dfsVisited == nil {
		e.dfsVisited = make(map[fd.FD]bool)
	}
	clear(e.dfsVisited)
	for _, i := range e.rng.Perm(len(validFds))[:n] {
		e.depthFirst(validFds[i], e.dfsVisited)
	}
}

// depthFirst recursively explores the valid generalizations of a valid FD
// (Algorithm 5). A generalization is followed when it is implied by the
// positive cover or when validation confirms it. The expensive deduction
// runs last, after the recursion, so that deeper (more general) FDs have
// already simplified the covers.
func (e *Engine) depthFirst(f fd.FD, visited map[fd.FD]bool) {
	if visited[f] {
		return
	}
	visited[f] = true
	f.Lhs.ForEach(func(r int) bool {
		gen := fd.FD{Lhs: f.Lhs.Without(r), Rhs: f.Rhs}
		if visited[gen] {
			return true
		}
		valid := e.fds.ContainsGeneralization(gen.Lhs, gen.Rhs)
		if !valid {
			e.stats.Validations++
			// Depth-first searches run on the engine goroutine (merge
			// phase), so the serial slot-0 scratch is free to reuse.
			valid, _ = e.scratch.FD(e.store, gen.Lhs, gen.Rhs, validate.NoPruning)
		}
		if valid {
			e.depthFirst(gen, visited)
		}
		return true
	})
	e.deduceNonFds(f)
}

// deduceNonFds updates both covers with a known-valid FD (Algorithm 6):
// all specializations in the negative cover are de-facto valid and are
// replaced by their maximal generalizations; the FD itself enters the
// positive cover if it is minimal, evicting its specializations.
func (e *Engine) deduceNonFds(f fd.FD) {
	induct.Generalize(e.nonFds, f.Lhs, f.Rhs)
	if !e.fds.ContainsGeneralization(f.Lhs, f.Rhs) {
		e.fds.RemoveSpecializations(f.Lhs, f.Rhs)
		e.fds.Add(f.Lhs, f.Rhs)
	}
}
