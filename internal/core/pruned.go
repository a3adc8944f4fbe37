// The pruned endpoint scan: per greedy step, instead of evaluating every
// gap endpoint (Θ(n) candidates), bound the attainable poisoned loss of
// each fixed-size block of gaps with regression.ClosedForm.Bound and
// evaluate only blocks whose bound beats the current best. Block bounds
// are O(1) each and tight only at block granularity (their envelope slack
// grows with block width), so the "tournament" degenerates to its optimal
// flat form: one bound sweep over all n/prunedLeafGaps blocks (~0.4% of a
// full scan), a best-first seed — evaluate the block with the winning
// bound to establish the pruning threshold — then a threshold pass over
// the remaining bounds. Surviving blocks are evaluated by the UNCHANGED
// endpointScan.chunk and fold through foldBest in block-index order, so
// the chosen key, rank, and losses are bit-identical to the sequential
// full scan — same first-maximum tie-break, same float operation order
// within a block (DESIGN.md §11, "Closed-form oracle & pruned scan"; the
// equivalence is pinned by differential and property tests in
// pruned_test.go).
//
// Determinism: the whole scan — bound sweep, seed selection, threshold pass
// and survivor evaluation — runs on the calling goroutine and depends only
// on (moments, key set, block size), so the result, BlocksVisited and
// Candidates are identical for every worker count. The survivors stay
// sequential because a step at n = 1e5 visits only 2–14 of 782 blocks:
// fanning them across the pool cost more in scheduling than it saved.

package core

import (
	"math"

	"cdfpoison/internal/regression"
)

// prunedLeafGaps is the number of gaps per block. Small enough that a
// surviving block costs only ~2× that many O(1) evaluations and that the
// bound envelope stays tight (its slack scales with block width); large
// enough that the per-block bound (a few dozen float ops) stays a
// vanishing fraction of evaluating the block.
const prunedLeafGaps = 128

// prunedMinGaps is the set size below which the plain full scan runs
// instead: with only a handful of blocks the bound sweep costs as much as
// scanning. The threshold depends only on n, never on the worker count, so
// the dispatch itself cannot break determinism.
const prunedMinGaps = 4 * prunedLeafGaps

// prunedScan wraps an endpointScan with the block-bound sweep. Like
// endpointScan, every buffer lives on the struct so the greedy loop reaches
// a zero-allocation steady state; run() re-derives the ClosedForm snapshot
// from the (possibly mutated) Prefix each call.
type prunedScan struct {
	scan      *endpointScan
	cf        regression.ClosedForm
	nGaps     int
	nLeaves   int
	seedLeaf  int           // block with the winning bound
	seedBest  candidateBest // its local best: the pruning threshold
	seedGap   int           // gap index of seedBest (tie-break anchor)
	bounds    []float64     // per-block loss upper bounds
	survivors []int         // visited block indices (seed included), ascending
	ordered   []candidateBest
}

func newPrunedScan(pre *regression.Prefix) *prunedScan {
	return &prunedScan{scan: newEndpointScan(pre)}
}

// leafGaps returns the gap range covered by block b.
func (s *prunedScan) leafGaps(b int) (glo, ghi int) {
	glo = b * prunedLeafGaps
	ghi = glo + prunedLeafGaps
	if ghi > s.nGaps {
		ghi = s.nGaps
	}
	return glo, ghi
}

// run executes one pruned scan. Small sets and WithFullScan fall through to
// the plain sequential-equivalent full scan (BlocksVisited/BlocksTotal stay
// zero there: no pruning happened).
func (s *prunedScan) run(ex exec) (SinglePointResult, error) {
	s.scan.ks = s.scan.pre.Set()
	s.nGaps = s.scan.ks.Len() - 1
	if ex.fullScan || s.nGaps < prunedMinGaps {
		return s.scan.run(ex)
	}
	s.cf = s.scan.pre.ClosedForm()
	s.nLeaves = (s.nGaps + prunedLeafGaps - 1) / prunedLeafGaps
	if cap(s.bounds) < s.nLeaves {
		// Size every scratch buffer for the worst case (all blocks survive)
		// up front; the greedy loop grows the set one key per step, so the
		// block count crosses the capacity rarely and the steady state
		// stays allocation-free (DESIGN.md §2, "Allocation budget").
		s.bounds = make([]float64, 2*s.nLeaves)
		s.survivors = make([]int, 0, 2*s.nLeaves)
		s.ordered = make([]candidateBest, 0, 2*s.nLeaves)
	}

	// Bound sweep + best-first seed selection. Saturated blocks (every
	// interior slot occupied) hold no candidate and get −Inf. The seed is
	// the largest FINITE bound (strict ">" keeps the first of equal bounds,
	// preserving index order): +Inf means "this bound is not informative" —
	// such blocks are unconditionally visited below, but seeding from one
	// would anchor the threshold to an arbitrary block's best and admit
	// nearly everything.
	ks := s.scan.ks
	bestBound := math.Inf(-1)
	s.seedLeaf = -1
	for b := 0; b < s.nLeaves; b++ {
		glo, ghi := s.leafGaps(b)
		kA, kB := ks.At(glo), ks.At(ghi)
		bd := math.Inf(-1)
		if kB-kA != int64(ghi-glo) {
			bd = s.cf.Bound(glo, ghi, kA+1, kB-1)
		}
		s.bounds[b] = bd
		if bd > bestBound && !math.IsInf(bd, 1) {
			bestBound, s.seedLeaf = bd, b
		}
	}
	if s.seedLeaf == -1 {
		// No finite bound anywhere: seed from the first unsaturated block.
		for b := 0; b < s.nLeaves; b++ {
			if !math.IsInf(s.bounds[b], -1) {
				s.seedLeaf = b
				break
			}
		}
	}
	if s.seedLeaf == -1 {
		return SinglePointResult{}, ErrNoGap // fully saturated key range
	}

	// Seed: evaluate the winning block to establish the threshold. A loose
	// winner cannot affect correctness — it only weakens the threshold,
	// admitting more survivors.
	glo, ghi := s.leafGaps(s.seedLeaf)
	seed, err := s.scan.chunk(glo, ghi)
	if err != nil {
		return SinglePointResult{}, err
	}
	s.seedBest = seed
	s.seedGap = seed.rank - 2 // chunk sets rank = gap index + 2
	if seed.candidates == 0 {
		s.seedGap = glo // empty block: loss −1 admits every unsaturated block
	}

	// Threshold pass: a block survives when its bound beats the seed's best
	// — or ties it from an earlier gap, since the first-maximum tie-break
	// keeps the earlier candidate, so an equal-loss candidate at a later
	// gap can never win the fold. The seed block stays in the list, so the
	// survivors are every block visited, in block order.
	s.survivors = s.survivors[:0]
	t := s.seedBest.loss
	for b := 0; b < s.nLeaves; b++ {
		if bd := s.bounds[b]; b == s.seedLeaf || bd > t || (bd == t && b*prunedLeafGaps < s.seedGap) {
			s.survivors = append(s.survivors, b)
		}
	}

	// Evaluate the survivors in block-index order, reusing the seed's
	// result, and fold them through foldBest: the sequential scan's
	// first-maximum tie-break over the visited subset.
	s.ordered = s.ordered[:0]
	for _, b := range s.survivors {
		if err := ex.ctx.Err(); err != nil {
			return SinglePointResult{}, err
		}
		best := seed
		if b != s.seedLeaf {
			glo, ghi := s.leafGaps(b)
			if best, err = s.scan.chunk(glo, ghi); err != nil {
				return SinglePointResult{}, err
			}
		}
		s.ordered = append(s.ordered, best)
	}
	res := SinglePointResult{
		CleanLoss:     s.scan.pre.CleanLoss(),
		PoisonedLoss:  -1,
		BlocksVisited: len(s.survivors),
		BlocksTotal:   s.nLeaves,
	}
	foldBest(s.ordered, &res)
	if res.PoisonedLoss < 0 {
		return SinglePointResult{}, ErrNoGap
	}
	return res, nil
}
