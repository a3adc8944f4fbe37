// Package robust provides poisoning-resistant CDF fitters behind a common
// Fitter interface, pluggable into every learned substrate's retrain path
// (dynamic.NewWithFit, shard.NewWithFit, and rmi.NewSingleWithFit, which
// hands the fitter to dynamic.NewWithFit). The OLS fit
// the paper attacks minimizes squared error, so a handful of adversarial
// keys can swing the slope arbitrarily; the estimators here bound a single
// key's influence instead — Theil–Sen by taking a median over pairwise
// slopes, trimmed least squares by refitting after discarding the
// worst-residual keys ("Testing the Robustness of Learned Index
// Structures", PAPERS.md).
//
// Every fitter is deterministic (no RNG, no map iteration) and runs on the
// calling goroutine, so a Model depends only on its input key set. See
// DESIGN.md §10 for the fitter contract.
package robust

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
)

// Fitter is the pluggable CDF-training contract: given a sorted key set,
// produce a regression.Model predicting 1-based ranks. Name() is the
// canonical spec form and round-trips through ParseFitter.
//
// Model semantics match regression.FitCDF: Loss is the MSE of the returned
// line over the FULL input set (poison included — the fit may ignore keys,
// the loss may not, so ContentLoss comparisons across fitters stay
// apples-to-apples) and N is the full input size.
type Fitter interface {
	Name() string
	Fit(ks keys.Set) (regression.Model, error)
}

// OLS is the undefended baseline: the exact least-squares fit the paper
// attacks (regression.FitCDF). Its presence makes "no robust training" a
// point on the same sweep axis as the robust estimators.
type OLS struct{}

// Name returns the canonical spec "ols".
func (OLS) Name() string { return "ols" }

// Fit delegates to the closed-form least-squares fit.
func (OLS) Fit(ks keys.Set) (regression.Model, error) { return regression.FitCDF(ks) }

// TheilSen is a deterministic Theil–Sen CDF estimator: the slope is the
// median of the n/2 disjoint pairwise slopes (key i paired with key i+n/2 —
// the Siegel-style pairing that keeps the estimator O(n log n) instead of
// O(n²) while preserving the 29% breakdown point), and the intercept is the
// median residual at that slope. A poisoning key moves one slope and one
// residual — never the median by more than one order statistic.
type TheilSen struct{}

// Name returns the canonical spec "theilsen".
func (TheilSen) Name() string { return "theilsen" }

// Fit runs the estimator.
func (TheilSen) Fit(ks keys.Set) (regression.Model, error) {
	n := ks.Len()
	if n == 0 {
		return regression.Model{}, regression.ErrTooFew
	}
	if n == 1 {
		// Degenerate single-key fit, mirroring regression.FitCDF: predict
		// rank 1 everywhere.
		return regression.Model{Line: regression.Line{W: 0, B: 1}, Loss: 0, N: 1}, nil
	}
	h := n / 2
	// Disjoint-pair slopes: rank distance is exactly h, key distance is
	// positive (keys are strictly increasing), so every slope is finite.
	slopes := fill(n-h, func(i int) float64 {
		return float64(h) / float64(ks.At(i+h)-ks.At(i))
	})
	w := median(slopes)
	resid := fill(n, func(i int) float64 {
		return float64(i+1) - w*float64(ks.At(i))
	})
	b := median(resid)
	line := regression.Line{W: w, B: b}
	loss, err := regression.EvaluateCDF(line, ks)
	if err != nil {
		return regression.Model{}, err
	}
	return regression.Model{Line: line, Loss: loss, N: n}, nil
}

// Trimmed is iterated trimmed least squares: fit, discard the Pct% of keys
// with the largest absolute rank residuals, refit on the survivors against
// their ORIGINAL ranks, for a fixed two rounds. Discarded keys still count
// in the reported Loss — the defense may refuse to train on a key, but the
// key is still stored and still costs probes.
type Trimmed struct {
	// Pct is the percentage of keys discarded per round, in (0, 50).
	Pct float64
}

// Name returns the canonical spec "trimmed:P".
func (t Trimmed) Name() string { return fmt.Sprintf("trimmed:%g", t.Pct) }

const trimRounds = 2

// Fit runs the estimator.
func (t Trimmed) Fit(ks keys.Set) (regression.Model, error) {
	if math.IsNaN(t.Pct) || t.Pct <= 0 || t.Pct >= 50 {
		return regression.Model{}, fmt.Errorf("robust: trim percentage %g outside (0, 50)", t.Pct)
	}
	n := ks.Len()
	full, err := regression.FitCDF(ks)
	if err != nil || n <= 2 {
		return full, err
	}
	drop := int(float64(n) * t.Pct / 100)
	if n-drop < 2 {
		drop = n - 2
	}
	if drop == 0 {
		return full, nil
	}
	// kept holds the surviving key indices, always in ascending order.
	kept := make([]int, n)
	for i := range kept {
		kept[i] = i
	}
	line := full.Line
	// The refit inputs, sized for the first (largest) survivor set.
	x := make([]float64, 0, n-drop)
	y := make([]float64, 0, n-drop)
	for round := 0; round < trimRounds; round++ {
		resid := fill(len(kept), func(j int) scored {
			i := kept[j]
			d := line.Predict(ks.At(i)) - float64(i+1)
			return scored{idx: i, r: math.Abs(d)}
		})
		keepN := len(kept) - drop
		if keepN < 2 {
			keepN = 2
		}
		kept = keepSmallest(resid, keepN, n)
		// Refit the survivors against their ORIGINAL 1-based ranks: the
		// model must still predict positions in the full stored array.
		x, y = x[:0], y[:0]
		for _, i := range kept {
			x = append(x, float64(ks.At(i)))
			y = append(y, float64(i+1))
		}
		line, err = regression.FitXY(x, y)
		if err != nil {
			return regression.Model{}, err
		}
	}
	loss, err := regression.EvaluateCDF(line, ks)
	if err != nil {
		return regression.Model{}, err
	}
	return regression.Model{Line: line, Loss: loss, N: n}, nil
}

// scored is one key's absolute rank residual under the current line.
type scored struct {
	idx int
	r   float64
}

// keepSmallest returns, in ascending index order, the indices of the keepN
// smallest residuals, ties broken on the lower index so the selection is
// deterministic. The (residual, index) order is total, so the selected set
// is unique and a selection finds it without a full sort; one pass over a
// keep mask of the n key indices then lists the survivors in index order.
func keepSmallest(resid []scored, keepN, n int) []int {
	selectSmallest(resid, keepN)
	keep := make([]bool, n)
	for _, s := range resid[:keepN] {
		keep[s.idx] = true
	}
	out := make([]int, 0, keepN)
	for i, k := range keep {
		if k {
			out = append(out, i)
		}
	}
	return out
}

// cmpScored is the strict (residual, index) order.
func cmpScored(a, b scored) int {
	switch {
	case a.r < b.r:
		return -1
	case a.r > b.r:
		return 1
	}
	return a.idx - b.idx
}

// selectSmallest reorders s so that s[:k] holds its k smallest elements
// under cmpScored, in no particular order. It is a quickselect on the
// median of three, deterministic for a given input; after 2·log₂(len(s))
// rounds without converging it sorts the remaining range instead, which
// bounds the worst case at O(n log n).
func selectSmallest(s []scored, k int) {
	lo, hi := 0, len(s)
	for budget := 2 * bits.Len(uint(len(s))); budget > 0 && hi-lo > 12; budget-- {
		// Median of three to s[hi-1], then a Lomuto partition around it.
		mid := lo + (hi-lo)/2
		if cmpScored(s[mid], s[lo]) < 0 {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if cmpScored(s[hi-1], s[lo]) < 0 {
			s[hi-1], s[lo] = s[lo], s[hi-1]
		}
		if cmpScored(s[mid], s[hi-1]) < 0 {
			s[mid], s[hi-1] = s[hi-1], s[mid]
		}
		pivot, p := s[hi-1], lo
		for i := lo; i < hi-1; i++ {
			if cmpScored(s[i], pivot) < 0 {
				s[i], s[p] = s[p], s[i]
				p++
			}
		}
		s[p], s[hi-1] = s[hi-1], s[p]
		switch {
		case p == k:
			return
		case p > k:
			hi = p
		default:
			lo = p + 1
		}
	}
	if k > lo && k < hi {
		slices.SortFunc(s[lo:hi], cmpScored)
	}
}

// fill returns out with out[i] = fn(i) for i in [0, n).
func fill[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = fn(i)
	}
	return out
}

// median returns the median of xs (mean of the central pair for even
// lengths), sorting a copy. xs must be non-empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m%2 == 1 {
		return s[m/2]
	}
	return (s[m/2-1] + s[m/2]) / 2
}

// ParseFitter parses the fitter spec syntax shared by the defense sweep and
// the lispoison defense subcommand:
//
//	ols              the undefended least-squares baseline
//	theilsen         deterministic Theil–Sen median-of-slopes
//	trimmed:P        trimmed least squares discarding P% per round (0<P<50)
//
// ParseFitter is total: any input yields a Fitter or an error, never a
// panic, and Fitter.Name round-trips through it.
func ParseFitter(s string) (Fitter, error) {
	fields := strings.Split(s, ":")
	switch fields[0] {
	case "ols":
		if len(fields) > 1 {
			return nil, fmt.Errorf("fitter %q: ols takes no parameters", s)
		}
		return OLS{}, nil
	case "theilsen":
		if len(fields) > 1 {
			return nil, fmt.Errorf("fitter %q: theilsen takes no parameters", s)
		}
		return TheilSen{}, nil
	case "trimmed":
		if len(fields) != 2 {
			return nil, fmt.Errorf("fitter %q: want trimmed:P", s)
		}
		p, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("fitter %q: bad percentage %q", s, fields[1])
		}
		if math.IsNaN(p) || p <= 0 || p >= 50 {
			return nil, fmt.Errorf("fitter %q: percentage %g outside (0, 50)", s, p)
		}
		return Trimmed{Pct: p}, nil
	default:
		return nil, fmt.Errorf("unknown fitter %q (want ols | theilsen | trimmed:P)", s)
	}
}
