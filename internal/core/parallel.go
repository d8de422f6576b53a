package core

import (
	"runtime"

	"dynfd/internal/validate"
)

// scanKind classifies one candidate of a lattice level before the merge.
type scanKind uint8

const (
	// scanStale: the candidate is no longer a cover member; no work, no
	// stats.
	scanStale scanKind = iota
	// scanSkipped: a pruning rule discharged the candidate without
	// validating (counted as a skipped validation).
	scanSkipped
	// scanEligible: the candidate must be validated against the store
	// (transient; replaced by scanValid/scanInvalid after validation).
	scanEligible
	// scanValid: validation confirmed the candidate holds.
	scanValid
	// scanInvalid: validation found a violating record pair.
	scanInvalid
)

// scanOutcome is the per-candidate result of a level's classification and
// validation. For scanInvalid, witness holds the violating record pair.
type scanOutcome struct {
	kind    scanKind
	witness validate.Witness
}

// resolveWorkers maps the Config.Workers knob to the scheduler's worker-slot
// count: 0 and 1 both mean one slot (every validation runs inline on the
// engine goroutine), n > 1 allows n concurrent validations, and n < 0 uses
// one slot per available CPU.
func resolveWorkers(n int) int {
	if n < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if n == 0 {
		return 1
	}
	return n
}
