package core

// probeEval is the scenario-side face of the sorted-batch probe kernel
// (DESIGN.md §12): it owns the sorted workload cache the per-epoch probe
// evaluation reads, so the steady-state epoch loop runs with ZERO
// allocations (TestProbeEvalZeroAllocs), matching the allocation-budget
// discipline of the pruned endpoint scan (DESIGN.md §3).
//
// Correctness leans on two invariants:
//
//   - the batch kernel is bit-identical to the per-key reference on the
//     same batch (index.BatchReader's contract, pinned by the differential
//     suite in internal/index), and
//   - integer probe sums are order-invariant, so sorting the workload once
//     folds to the exact totals the historical per-key loop produced —
//     every CSV fingerprint stays byte-identical.
//
// Each side is one merged pass on the calling goroutine: the kernel's
// gallop cursor makes a pass cheap enough that chunking it across the
// worker pool cost more than it saved.

import (
	"slices"

	"cdfpoison/internal/index"
)

// EvalStats counts how many (key, index-side) probe evaluations went
// through the sorted-batch kernel versus the per-key reference loop —
// surfaced on every scenario result so the CLI can report which eval path
// produced the numbers. WithPerKeyEval, whose only user is
// TestPerKeyEvalEquivalence, moves the counts from BatchedKeys to
// PerKeyKeys while changing none of the measured columns.
type EvalStats struct {
	// BatchedKeys / PerKeyKeys count evaluated keys per index side (one
	// epoch evaluating n keys against victim and clean adds 2n).
	BatchedKeys int64
	PerKeyKeys  int64
}

func (s *EvalStats) add(keys int64, perKey bool) {
	if perKey {
		s.PerKeyKeys += keys
	} else {
		s.BatchedKeys += keys
	}
}

// probeAgg is one batch's exact probe totals for both indexes.
type probeAgg struct {
	clean, victim int64
}

// probeEval carries the eval scratch across epochs; the zero value is ready.
type probeEval struct {
	sorted []int64 // sorted workload cache (refresh)
	srcLen int     // source length the cache was built from
	stats  EvalStats
}

// refresh (re)builds the sorted cache from an APPEND-ONLY source workload:
// equal length means identical content, so steady-state epochs (no new
// arrivals) skip the copy and sort entirely and the cache's capacity is
// reused across the epochs that do grow.
func (pe *probeEval) refresh(src []int64) {
	if pe.srcLen == len(src) {
		return
	}
	pe.sorted = append(pe.sorted[:0], src...)
	slices.Sort(pe.sorted)
	pe.srcLen = len(src)
}

// measurePair evaluates one sorted batch against both indexes: one merged
// sorted-batch pass per side, or with ex.perKeyEval the per-key reference —
// same totals, classic cost.
func (pe *probeEval) measurePair(ex exec, sorted []int64, clean, victim index.PointReader) (probeAgg, error) {
	if err := ex.ctx.Err(); err != nil {
		return probeAgg{}, err
	}
	var total probeAgg
	if ex.perKeyEval {
		total.clean, _ = clean.ProbeSum(sorted)
		total.victim, _ = victim.ProbeSum(sorted)
	} else {
		total.clean, _ = index.ProbeSumSorted(clean, sorted)
		total.victim, _ = index.ProbeSumSorted(victim, sorted)
	}
	pe.stats.add(2*int64(len(sorted)), ex.perKeyEval)
	return total, nil
}
