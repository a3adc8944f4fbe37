package core

// probeEval is the scenario-side face of the sorted-batch probe kernel
// (DESIGN.md §12): one struct owns every piece of scratch the per-epoch
// probe evaluation needs — the sorted workload cache, the chunk-result
// buffer, and the bound-once chunk closure — so the steady-state epoch
// loop runs with ZERO allocations (TestProbeEvalZeroAllocs), matching the
// allocation-budget discipline of the pruned endpoint scan (DESIGN.md §3).
//
// Correctness leans on two invariants:
//
//   - the batch kernel is bit-identical to the per-key reference on the
//     same batch (index.BatchReader's contract, pinned by the differential
//     suite in internal/index), and
//   - integer probe sums are order- and partition-invariant, so sorting
//     the workload once and chunking the SORTED batch folds to the exact
//     totals the historical per-key loop produced — every CSV fingerprint
//     stays byte-identical.
//
// A chunk of a sorted batch is itself sorted, so the worker fan-out and
// the kernel compose: each chunk runs the merged pass independently and
// the chunk sums fold in index order (the determinism contract, §2).

import (
	"slices"

	"cdfpoison/internal/engine"
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

// probeAgg is one chunk's exact probe totals for both indexes. Integer sums
// are partition-invariant, so any chunking folds to the sequential totals.
type probeAgg struct {
	clean, victim int64
}

// probeEval carries the eval scratch across epochs. The zero value is NOT
// ready: newProbeEval binds the chunk closure once (a per-epoch method
// value would allocate).
type probeEval struct {
	sorted []int64 // sorted workload cache (refresh)
	srcLen int     // source length the cache was built from
	buf    []probeAgg
	fn     func(lo, hi int) (probeAgg, error)
	// Per-call bindings for fn — set by measurePair, cleared after, so the
	// struct never pins an index or batch beyond the call.
	batch         []int64
	clean, victim index.PointReader
	perKey        bool
	stats         EvalStats
}

func newProbeEval() *probeEval {
	pe := &probeEval{}
	pe.fn = pe.evalChunk
	return pe
}

func (pe *probeEval) evalChunk(lo, hi int) (probeAgg, error) {
	var a probeAgg
	seg := pe.batch[lo:hi]
	if pe.perKey {
		a.clean, _ = pe.clean.ProbeSum(seg)
		a.victim, _ = pe.victim.ProbeSum(seg)
	} else {
		a.clean, _ = index.ProbeSumSorted(pe.clean, seg)
		a.victim, _ = index.ProbeSumSorted(pe.victim, seg)
	}
	return a, nil
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

// measurePair evaluates one sorted batch against both indexes, fanning
// chunks of the batch across the exec's worker pool and folding the chunk
// sums in index order. With ex.perKeyEval the chunks run the per-key
// reference instead — same totals, classic cost.
func (pe *probeEval) measurePair(ex exec, grainFloor int, sorted []int64, clean, victim index.PointReader) (probeAgg, error) {
	n := len(sorted)
	pe.batch, pe.clean, pe.victim, pe.perKey = sorted, clean, victim, ex.perKeyEval
	grain := engine.GrainForMin(n, ex.pool, grainFloor)
	var err error
	pe.buf, err = engine.MapChunksInto(ex.ctx, ex.pool, n, grain, pe.buf, pe.fn)
	pe.batch, pe.clean, pe.victim = nil, nil, nil
	if err != nil {
		return probeAgg{}, err
	}
	var total probeAgg
	for _, a := range pe.buf {
		total.clean += a.clean
		total.victim += a.victim
	}
	pe.stats.add(2*int64(n), ex.perKeyEval)
	return total, nil
}
