package rmi

import (
	"errors"
	"sort"
	"testing"

	"cdfpoison/internal/dataset"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/xrand"
)

// singleRef is the differential reference for the single-model backend:
// the fanout-1 two-stage Index built on the model's training content, plus
// the staged keys it has not absorbed yet, searched by a plain binary
// search after the model's window misses.
type singleRef struct {
	idx    *Index
	staged []int64 // sorted
}

func newSingleRef(t *testing.T, base keys.Set, staged []int64) singleRef {
	t.Helper()
	idx, err := Build(base, Config{Fanout: 1})
	if err != nil {
		t.Fatal(err)
	}
	return singleRef{idx: idx, staged: append([]int64(nil), staged...)}
}

func (r singleRef) lookup(k int64) index.LookupResult {
	ir := r.idx.Lookup(k)
	res := index.LookupResult{Found: ir.Found, Probes: ir.Probes, Window: ir.Window}
	lo, hi := 0, len(r.staged)-1
	for !res.Found && lo <= hi {
		mid := (lo + hi) / 2
		res.Probes++
		switch c := r.staged[mid]; {
		case c == k:
			res.Found, res.InBuffer = true, true
		case c < k:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return res
}

// stats is the reference index.Stats: the Index's own loss and window, and
// the model's MSE against the ranks of base ∪ staged.
func (r singleRef) stats(retrains int) index.Stats {
	st := r.idx.Stats()
	content := r.idx.ks.Union(keys.FromSorted(r.staged))
	var sum float64
	for i := 0; i < content.Len(); i++ {
		d := r.idx.PredictPosition(content.At(i)) - float64(i+1)
		sum += d * d
	}
	return index.Stats{
		Keys:        content.Len(),
		Buffered:    len(r.staged),
		Retrains:    retrains,
		ModelLoss:   st.SecondStageMSE,
		ContentLoss: sum / float64(content.Len()),
		Window:      st.MaxWindow,
	}
}

// check compares every probe key's lookup, and one sorted batch over them,
// between the backend (or a snapshot of it) and the reference.
func (r singleRef) check(t *testing.T, what string, got index.PointReader, probe []int64) {
	t.Helper()
	var want int64
	wantMiss := 0
	for _, k := range probe {
		g, w := got.Lookup(k), r.lookup(k)
		if g != w {
			t.Fatalf("%s: key %d: backend %+v, reference %+v", what, k, g, w)
		}
		want += int64(w.Probes)
		if !w.Found {
			wantMiss++
		}
	}
	sorted := append([]int64(nil), probe...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if p, miss := index.ProbeSumSorted(got, sorted); p != want || miss != wantMiss {
		t.Fatalf("%s: sorted batch (%d, %d), reference (%d, %d)", what, p, miss, want, wantMiss)
	}
}

func checkStats(t *testing.T, what string, got, want index.Stats) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: stats %+v, reference %+v", what, got, want)
	}
}

// probeKeys is every stored key plus absent keys inside, below and above
// the content's range.
func probeKeys(rng *xrand.RNG, content keys.Set) []int64 {
	out := append([]int64(nil), content.Keys()...)
	lo, hi := content.Min(), content.Max()
	for len(out) < 2*content.Len() {
		k := lo - 50 + rng.Int63n(hi-lo+101)
		if !content.Contains(k) {
			out = append(out, k)
		}
	}
	return out
}

// freshKeys draws at least m distinct keys absent from ks, including one
// above its maximum and, unless the minimum is 0, one below it.
func freshKeys(rng *xrand.RNG, ks keys.Set, m int) []int64 {
	out := []int64{ks.Max() + 7}
	if ks.Min() > 0 {
		out = append(out, ks.Min()-1)
	}
	seen := map[int64]bool{}
	for _, k := range out {
		seen[k] = true
	}
	for len(out) < m {
		k := ks.Min() + rng.Int63n(ks.Max()-ks.Min())
		if !ks.Contains(k) && !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// TestSingleLookupMatchesIndex is the differential of NewSingle against
// Build(ks, Config{Fanout: 1}) on the same content: lookups of stored,
// absent and staged keys, sorted batches, and Stats (ModelLoss against
// SecondStageMSE, Window against MaxWindow) agree bit for bit — fresh,
// with keys staged, for a snapshot taken before Retrain, and after it.
func TestSingleLookupMatchesIndex(t *testing.T) {
	cases := []struct {
		name string
		gen  func(*xrand.RNG) (keys.Set, error)
	}{
		{"uniform", func(rng *xrand.RNG) (keys.Set, error) { return dataset.Uniform(rng, 500, 20_000) }},
		{"lognormal", func(rng *xrand.RNG) (keys.Set, error) { return dataset.LogNormal(rng, 800, 1_000_000, 0, 2) }},
		{"two", func(*xrand.RNG) (keys.Set, error) { return keys.New([]int64{10, 40}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := xrand.New(7)
			ks, err := tc.gen(rng)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSingle(ks)
			if err != nil {
				t.Fatal(err)
			}
			ref := newSingleRef(t, ks, nil)
			ref.check(t, "fresh", s, probeKeys(rng, ks))
			checkStats(t, "fresh", s.Stats(), ref.stats(0))

			staged := freshKeys(rng, ks, 2+ks.Len()/10)
			for _, k := range staged {
				if ok, retrained := s.Insert(k); !ok || retrained {
					t.Fatalf("fresh key %d: accepted=%v retrained=%v", k, ok, retrained)
				}
			}
			sort.Slice(staged, func(i, j int) bool { return staged[i] < staged[j] })
			content := ks.Union(keys.FromSorted(staged))
			probe := probeKeys(rng, content)
			ref = newSingleRef(t, ks, staged)
			ref.check(t, "staged", s, probe)
			checkStats(t, "staged", s.Stats(), ref.stats(0))

			snap := s.Snapshot()
			s.Retrain()
			ref.check(t, "pre-retrain snapshot", snap, probe)

			after := newSingleRef(t, content, nil)
			after.check(t, "retrained", s, probe)
			checkStats(t, "retrained", s.Stats(), after.stats(1))
		})
	}
}

// TestSingleNeedsTwoKeys pins the single-model backend's floor: like every
// dynamic index it refuses fewer than two keys, while the static Index
// still builds over one.
func TestSingleNeedsTwoKeys(t *testing.T) {
	for _, in := range [][]int64{nil, {42}} {
		ks, err := keys.New(in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewSingle(ks); !errors.Is(err, dynamic.ErrTooFew) {
			t.Fatalf("NewSingle over %d keys: err = %v, want dynamic.ErrTooFew", len(in), err)
		}
	}
	one, _ := keys.New([]int64{42})
	if _, err := Build(one, Config{Fanout: 1}); err != nil {
		t.Fatalf("Build over one key: %v", err)
	}
}

// TestSingleStagingAndRebuild: inserts stage without touching the model;
// Retrain absorbs them; duplicates and negatives are rejected at both
// levels.
func TestSingleStagingAndRebuild(t *testing.T) {
	ks, err := dataset.Uniform(xrand.New(8), 300, 9_000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSingle(ks)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Insert(-5); ok {
		t.Fatal("negative key accepted")
	}
	if ok, _ := s.Insert(ks.At(10)); ok {
		t.Fatal("base duplicate accepted")
	}
	fresh := freshInteriorKey(ks.Keys())
	if ok, retrained := s.Insert(fresh); !ok || retrained {
		t.Fatalf("fresh key: accepted=%v retrained=%v", ok, retrained)
	}
	if ok, _ := s.Insert(fresh); ok {
		t.Fatal("staged duplicate accepted")
	}
	r := s.Lookup(fresh)
	if !r.Found || !r.InBuffer {
		t.Fatalf("staged key lookup: %+v", r)
	}
	st := s.Stats()
	if st.Buffered != 1 || st.Keys != ks.Len()+1 || st.Retrains != 0 {
		t.Fatalf("pre-rebuild stats: %+v", st)
	}
	if st.ContentLoss <= 0 {
		t.Fatalf("staged key did not surface as content loss: %+v", st)
	}
	s.Retrain()
	st = s.Stats()
	if st.Buffered != 0 || st.Retrains != 1 {
		t.Fatalf("post-rebuild stats: %+v", st)
	}
	if r := s.Lookup(fresh); !r.Found || r.InBuffer {
		t.Fatalf("absorbed key lookup: %+v", r)
	}
}

func freshInteriorKey(sorted []int64) int64 {
	for i := 1; i < len(sorted); i++ {
		if sorted[i]-sorted[i-1] >= 2 {
			return sorted[i-1] + 1
		}
	}
	panic("no gap")
}
