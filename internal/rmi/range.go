package rmi

// Range queries — the operation class that motivates learned RANGE indexes
// in the first place (Kraska et al. position the RMI as a B-Tree
// replacement for range scans). A range query locates the first key >= lo
// with one model-guided lookup and then scans the sorted key array, so its
// cost is one poisonable prediction plus output size.

// AscendRange calls fn(pos, key) for every stored key in [lo, hi] in
// increasing order until fn returns false. It returns the number of key
// comparisons spent locating the range start (the poisoning-sensitive part
// of the cost).
func (idx *Index) AscendRange(lo, hi int64, fn func(pos int, key int64) bool) (probes int) {
	pos, probes := idx.lowerBound(lo)
	for ; pos < idx.ks.Len(); pos++ {
		k := idx.ks.At(pos)
		if k > hi {
			return probes
		}
		if !fn(pos, k) {
			return probes
		}
	}
	return probes
}

// RangeCount returns the number of stored keys in [lo, hi] and the key
// comparisons spent on the two boundary locations.
func (idx *Index) RangeCount(lo, hi int64) (count, probes int) {
	if hi < lo {
		return 0, 0
	}
	start, p1 := idx.lowerBound(lo)
	end, p2 := idx.lowerBound(hi + 1)
	return end - start, p1 + p2
}

// lowerBound returns the smallest position whose key is >= k, using the
// stage-2 model's guaranteed window exactly like Lookup, then a bounded
// binary search. Positions can equal Len() when k exceeds every stored key.
func (idx *Index) lowerBound(k int64) (pos, probes int) {
	n := idx.ks.Len()
	if n == 0 {
		return 0, 0
	}
	if k > idx.ks.Max() {
		return n, 0
	}
	if k <= idx.ks.Min() {
		return 0, 0
	}
	m := idx.route(k)
	s := &idx.models[m]
	lo, hi := 0, n-1
	if s.assigned > 0 {
		pred := s.line.Predict(k)
		lo = int(pred+s.eLo) - 1
		hi = int(pred+s.eHi) + 1
		// Clamp BOTH ends of both bounds: for absent keys the prediction is
		// unguaranteed, and a model poisoned (or just skewed) enough can
		// overshoot past n-1 or undershoot below 0 on either bound, which
		// previously sent the widening loops below out of range.
		lo = min(max(lo, 0), n-1)
		hi = min(max(hi, 0), n-1)
	}
	// The window is guaranteed for stored keys; for absent keys the true
	// lower bound may sit just outside — widen until bracketed.
	for lo > 0 && idx.ks.At(lo) >= k {
		lo = max(0, lo-(hi-lo+1))
		probes++
	}
	for hi < n-1 && idx.ks.At(hi) < k {
		hi = min(n-1, hi+(hi-lo+1))
		probes++
	}
	for lo < hi {
		mid := (lo + hi) / 2
		probes++
		if idx.ks.At(mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if idx.ks.At(lo) < k {
		lo++
	}
	return lo, probes
}
