package robust

import (
	"math"
	"slices"
	"sort"
	"testing"

	"cdfpoison/internal/dataset"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
	"cdfpoison/internal/xrand"
)

func mustSet(t *testing.T, ks []int64) keys.Set {
	t.Helper()
	s, err := keys.New(ks)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// progression builds the exact line fixture: keys a, a+step, a+2*step, ...
func progression(t *testing.T, a, step int64, n int) keys.Set {
	t.Helper()
	out := make([]int64, n)
	for i := range out {
		out[i] = a + step*int64(i)
	}
	return mustSet(t, out)
}

// poisoned returns the progression plus a dense adversarial cluster at the
// high end — the shape GreedyMultiPoint produces.
func poisoned(t *testing.T, clean keys.Set, cluster int) keys.Set {
	t.Helper()
	out := append([]int64(nil), clean.Keys()...)
	base := clean.Max() - int64(cluster) - 1
	for i := 0; i < cluster; i++ {
		out = append(out, base+int64(i))
	}
	s, err := keys.New(out)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func allFitters() []Fitter {
	return []Fitter{OLS{}, TheilSen{}, Trimmed{Pct: 10}, Trimmed{Pct: 25}}
}

func TestOLSMatchesFitCDF(t *testing.T) {
	ks, err := dataset.Uniform(xrand.New(7), 300, 15000)
	if err != nil {
		t.Fatal(err)
	}
	want, err := regression.FitCDF(ks)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OLS{}.Fit(ks)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("OLS.Fit = %+v, FitCDF = %+v", got, want)
	}
}

func TestTheilSenExactOnPerfectLine(t *testing.T) {
	ks := progression(t, 100, 7, 201)
	m, err := TheilSen{}.Fit(ks)
	if err != nil {
		t.Fatal(err)
	}
	if w := 1.0 / 7.0; math.Abs(m.Line.W-w) > 1e-12 {
		t.Fatalf("W = %v, want %v", m.Line.W, w)
	}
	if m.Loss > 1e-18 {
		t.Fatalf("Loss = %v on a perfect line", m.Loss)
	}
	if m.N != ks.Len() {
		t.Fatalf("N = %d, want %d", m.N, ks.Len())
	}
}

// TestRobustFittersResistCluster is the point of the package: a dense
// poison cluster drags the OLS slope, while Theil–Sen and trimmed LS stay
// materially closer to the clean fit.
func TestRobustFittersResistCluster(t *testing.T) {
	clean := progression(t, 1000, 50, 200)
	cleanFit, err := regression.FitCDF(clean)
	if err != nil {
		t.Fatal(err)
	}
	bad := poisoned(t, clean, 40)
	ols, err := OLS{}.Fit(bad)
	if err != nil {
		t.Fatal(err)
	}
	olsDrift := math.Abs(ols.Line.W - cleanFit.Line.W)
	if olsDrift == 0 {
		t.Fatal("fixture too weak: poison did not move the OLS slope")
	}
	for _, f := range []Fitter{TheilSen{}, Trimmed{Pct: 20}} {
		m, err := f.Fit(bad)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		drift := math.Abs(m.Line.W - cleanFit.Line.W)
		if drift >= olsDrift/2 {
			t.Errorf("%s slope drift %v not under half the OLS drift %v", f.Name(), drift, olsDrift)
		}
	}
}

// TestFitDeterminism: two sequential fits of the same input are
// byte-identical (comparable Model struct).
func TestFitDeterminism(t *testing.T) {
	ks, err := dataset.Uniform(xrand.New(13), 500, 40000)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range allFitters() {
		a, err := f.Fit(ks)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		b, err := f.Fit(ks)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if a != b {
			t.Errorf("%s: repeated fits differ: %+v vs %+v", f.Name(), a, b)
		}
	}
}

func TestFitDegenerateSizes(t *testing.T) {
	for _, f := range allFitters() {
		if _, err := f.Fit(keys.Set{}); err == nil {
			t.Errorf("%s: no error on empty set", f.Name())
		}
		one := mustSet(t, []int64{42})
		m, err := f.Fit(one)
		if err != nil {
			t.Errorf("%s: single-key fit failed: %v", f.Name(), err)
		} else if m.Predict(42) != 1 {
			t.Errorf("%s: single-key fit predicts %v for the only key", f.Name(), m.Predict(42))
		}
		two := mustSet(t, []int64{10, 20})
		if _, err := f.Fit(two); err != nil {
			t.Errorf("%s: two-key fit failed: %v", f.Name(), err)
		}
	}
}

func TestTrimmedRejectsBadPct(t *testing.T) {
	ks := progression(t, 0, 3, 50)
	for _, pct := range []float64{0, -5, 50, 80, math.NaN()} {
		if _, err := (Trimmed{Pct: pct}).Fit(ks); err == nil {
			t.Errorf("Trimmed{%v}.Fit accepted an out-of-range percentage", pct)
		}
	}
}

func TestParseFitterRoundTrip(t *testing.T) {
	for _, spec := range []string{"ols", "theilsen", "trimmed:10", "trimmed:2.5"} {
		f, err := ParseFitter(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if f.Name() != spec {
			t.Errorf("ParseFitter(%q).Name() = %q", spec, f.Name())
		}
		again, err := ParseFitter(f.Name())
		if err != nil {
			t.Errorf("Name %q does not re-parse: %v", f.Name(), err)
		} else if again.Name() != f.Name() {
			t.Errorf("round trip drifted: %q -> %q", f.Name(), again.Name())
		}
	}
}

func TestParseFitterRejects(t *testing.T) {
	for _, spec := range []string{"", "huber", "ols:1", "theilsen:2", "trimmed",
		"trimmed:", "trimmed:0", "trimmed:50", "trimmed:-3", "trimmed:NaN", "trimmed:x", "trimmed:1:2"} {
		if _, err := ParseFitter(spec); err == nil {
			t.Errorf("ParseFitter(%q) accepted an invalid spec", spec)
		}
	}
}

// twoSortKeep is the reference survivor selection keepSmallest replaced:
// sort.Slice on the (residual, index) order, then sort.Ints on the chosen
// indices.
func twoSortKeep(resid []scored, keepN int) []int {
	sort.Slice(resid, func(a, b int) bool {
		if resid[a].r != resid[b].r {
			return resid[a].r < resid[b].r
		}
		return resid[a].idx < resid[b].idx
	})
	next := make([]int, keepN)
	for j := range next {
		next[j] = resid[j].idx
	}
	sort.Ints(next)
	return next
}

// TestKeepSmallestMatchesTwoSort pins the one-sort selection to the
// two-sort reference over random index subsets, with residuals drawn from a
// handful of values so that most comparisons are ties broken on the index.
func TestKeepSmallestMatchesTwoSort(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(300)
		var idx []int
		for i := 0; i < n; i++ {
			if rng.Intn(4) != 0 {
				idx = append(idx, i)
			}
		}
		if len(idx) < 2 {
			continue
		}
		levels := 1 + rng.Intn(6)
		resid := make([]scored, len(idx))
		for j, i := range idx {
			r := float64(rng.Intn(levels))
			if trial%2 == 1 {
				r = rng.Float64() * float64(levels)
			}
			resid[j] = scored{idx: i, r: r}
		}
		// Score in a shuffled order: the selection must not depend on it.
		rng.Shuffle(len(resid), func(a, b int) { resid[a], resid[b] = resid[b], resid[a] })
		keepN := 2 + rng.Intn(len(idx)-1)
		want := twoSortKeep(append([]scored(nil), resid...), keepN)
		got := keepSmallest(append([]scored(nil), resid...), keepN, n)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d keep=%d levels=%d): got %v, want %v", trial, n, keepN, levels, got, want)
		}
	}
	// The classic quickselect worst cases, every boundary position.
	const n = 200
	patterns := map[string]func(i int) float64{
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(n - i) },
		"organ-pipe": func(i int) float64 { return float64(min(i, n-i)) },
		"sawtooth":   func(i int) float64 { return float64(i % 7) },
		"all-tied":   func(int) float64 { return 1 },
	}
	for name, r := range patterns {
		resid := make([]scored, n)
		for i := range resid {
			resid[i] = scored{idx: i, r: r(i)}
		}
		for keepN := 2; keepN <= n; keepN++ {
			want := twoSortKeep(append([]scored(nil), resid...), keepN)
			got := keepSmallest(append([]scored(nil), resid...), keepN, n)
			if !slices.Equal(got, want) {
				t.Fatalf("%s keep=%d: got %v, want %v", name, keepN, got, want)
			}
		}
	}
}

// trimmedTwoSort is the reference trimmed fit with the two-sort selection,
// kept verbatim from before keepSmallest so the Model can be compared bit
// for bit.
func trimmedTwoSort(t *testing.T, pct float64, ks keys.Set) regression.Model {
	t.Helper()
	n := ks.Len()
	full, err := regression.FitCDF(ks)
	if err != nil || n <= 2 {
		return full
	}
	drop := int(float64(n) * pct / 100)
	if n-drop < 2 {
		drop = n - 2
	}
	if drop == 0 {
		return full
	}
	kept := make([]int, n)
	for i := range kept {
		kept[i] = i
	}
	line := full.Line
	for round := 0; round < trimRounds; round++ {
		resid := make([]scored, len(kept))
		for j, i := range kept {
			resid[j] = scored{idx: i, r: math.Abs(line.Predict(ks.At(i)) - float64(i+1))}
		}
		keepN := len(kept) - drop
		if keepN < 2 {
			keepN = 2
		}
		kept = twoSortKeep(resid, keepN)
		x := make([]float64, len(kept))
		y := make([]float64, len(kept))
		for j, i := range kept {
			x[j] = float64(ks.At(i))
			y[j] = float64(i + 1)
		}
		if line, err = regression.FitXY(x, y); err != nil {
			t.Fatal(err)
		}
	}
	loss, err := regression.EvaluateCDF(line, ks)
	if err != nil {
		t.Fatal(err)
	}
	return regression.Model{Line: line, Loss: loss, N: n}
}

// TestTrimmedMatchesTwoSortReference: the trimmed fit is byte-identical to
// the two-sort reference on random sets, on exact progressions (every
// residual tied) and on poisoned progressions.
func TestTrimmedMatchesTwoSortReference(t *testing.T) {
	var sets []keys.Set
	for _, n := range []int{3, 10, 97, 500, 1060} {
		ks, err := dataset.Uniform(xrand.New(uint64(n)+5), n, int64(n)*40)
		if err != nil {
			t.Fatal(err)
		}
		line := progression(t, 100, 7, n)
		sets = append(sets, ks, line, poisoned(t, line, n/10+1))
	}
	for _, ks := range sets {
		for _, pct := range []float64{1, 10, 25, 49} {
			want := trimmedTwoSort(t, pct, ks)
			got, err := Trimmed{Pct: pct}.Fit(ks)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trimmed:%g n=%d: got %+v, want %+v", pct, ks.Len(), got, want)
			}
		}
	}
}

// BenchmarkTrimmedFit times one trimmed:10 fit of a shard-sized key set.
func BenchmarkTrimmedFit(b *testing.B) {
	ks, err := dataset.Uniform(xrand.New(9), 1060, 1060*40)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (Trimmed{Pct: 10}).Fit(ks); err != nil {
			b.Fatal(err)
		}
	}
}
