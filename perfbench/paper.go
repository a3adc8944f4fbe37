package main

// paper-attacks: the offline attacker of the paper's Figs 2-6. A step is
// one round: Algorithm 1 (greedy multi-point) on a uniform and a lognormal
// key set, then Algorithm 2 (RMI attack) on a smaller lognormal set. An op
// is one poison key produced.

import (
	"fmt"
	"math"
	"os"

	"cdfpoison/internal/core"
	"cdfpoison/internal/dataset"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
	"cdfpoison/internal/xrand"
)

const (
	paperN        = 100_000 // keys per greedy set
	paperDomain   = 100     // domain = paperDomain × keys (1% density)
	paperGreedyP  = 100     // greedy budget per set
	paperRMIN     = 5_000   // keys in the RMI set
	paperRMIModel = 20      // second-stage models
	paperRMIPct   = 2.0     // poisoning percentage
	paperRMIAlpha = 3.0

	lossTolerance = 1e-6 // relative; see checkGreedy

	// paperGroup is the workload's repeat spacing in episodes (see
	// runWorkload); the inputs of one group stay generated, since a
	// round's key sets take longer to draw than the round takes to run.
	paperGroup = 8
)

type paperRound struct {
	uniform, lognormal, rmiSet keys.Set
}

type paperWorkload struct {
	seed   uint64
	opts   []core.Option
	rounds map[int]*paperRound // inputs of the episodes of one group
}

// paperOut is one round's outputs.
type paperOut struct {
	Episode            int // fixes the inputs
	Uniform, Lognormal core.GreedyResult
	RMI                core.RMIAttackResult
	// RMIPoison lists RMI.Poison in full for the output digest: a large
	// keys.Set prints only as a summary.
	RMIPoison []int64
}

func setupPaper(seed uint64, workers int) (runner, error) {
	w := &paperWorkload{seed: seed, opts: []core.Option{core.WithWorkers(workers)}, rounds: map[int]*paperRound{}}
	r, err := w.round(0)
	if err != nil {
		return nil, err
	}
	// Warm-up: one single-key greedy call brings the attack kernel and the
	// worker pool up. A whole round would make set-up time depend on how
	// hard the first round's keys are to attack.
	if _, err := core.GreedyMultiPoint(r.uniform, 1, w.opts...); err != nil {
		return nil, err
	}
	return w, nil
}

// round returns episode k's inputs, drawn fresh for every episode so that
// a run averages over many key sets.
func (w *paperWorkload) round(k int) (*paperRound, error) {
	if r, ok := w.rounds[k]; ok {
		return r, nil
	}
	rng := xrand.New(w.seed<<32 ^ uint64(k))
	var r paperRound
	var err error
	if r.uniform, err = dataset.Uniform(rng.Split(), paperN, paperDomain*paperN); err != nil {
		return nil, err
	}
	if r.lognormal, err = dataset.LogNormal(rng.Split(), paperN, paperDomain*paperN, 0, 2); err != nil {
		return nil, err
	}
	if r.rmiSet, err = dataset.LogNormal(rng.Split(), paperRMIN, paperDomain*paperRMIN, 0, 2); err != nil {
		return nil, err
	}
	for j := range w.rounds {
		if j/paperGroup != k/paperGroup {
			delete(w.rounds, j)
		}
	}
	w.rounds[k] = &r
	return &r, nil
}

func (w *paperWorkload) run(k int, t *tracer) (episode, error) {
	var e episode
	out := paperOut{Episode: k}
	r, err := w.round(k)
	if err != nil {
		return e, err
	}
	m := startMeter(t)
	if out.Uniform, err = greedy(t, r.uniform, paperGreedyP, w.opts...); err == nil {
		if out.Lognormal, err = greedy(t, r.lognormal, paperGreedyP, w.opts...); err == nil {
			out.RMI, err = rmiAttack(t, r.rmiSet, core.RMIAttackOptions{
				NumModels: paperRMIModel, Percent: paperRMIPct, Alpha: paperRMIAlpha,
			}, w.opts...)
		}
	}
	m.stop(&e)
	if err != nil {
		return e, err
	}
	e.steps = []int64{e.wall}
	e.ops = int64(len(out.Uniform.Poison) + len(out.Lognormal.Poison) + out.RMI.Injected)
	out.RMIPoison = out.RMI.Poison.Keys()
	e.out = out
	return e, nil
}

func (w *paperWorkload) check(e *episode) int {
	out := e.out.(paperOut)
	r, err := w.round(out.Episode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
		return 1
	}
	for _, err := range []error{
		checkGreedy(r.uniform, out.Uniform, paperGreedyP),
		checkGreedy(r.lognormal, out.Lognormal, paperGreedyP),
		checkRMI(r.rmiSet, out.RMI),
	} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
			return 1
		}
	}
	return 0
}

func (w *paperWorkload) storedKeys() int {
	n := 0
	for _, r := range w.rounds {
		n += r.uniform.Len() + r.lognormal.Len() + r.rmiSet.Len()
	}
	return n
}

// checkGreedy verifies Algorithm 1's output against its input: at most p
// distinct poison keys, none in the legitimate set, the poisoned set is
// their union, and its least-squares loss equals the trajectory's end.
//
// The loss is a small difference of large moments (rank variance ~n²/12
// against an MSE of ~10⁴ on uniform keys), so the two computations agree
// only to within cancellation: regression.FitCDF's float64 sums drift by
// a few parts in 10⁸ from the attack kernel's exact integer moments. The
// check allows lossTolerance relative, far below any change a wrong key
// or a wrong trajectory would make.
func checkGreedy(legit keys.Set, g core.GreedyResult, p int) error {
	if len(g.Poison) > p {
		return fmt.Errorf("greedy returned %d poison keys over a budget of %d", len(g.Poison), p)
	}
	if err := checkPoison(legit, g.Poison); err != nil {
		return fmt.Errorf("greedy: %w", err)
	}
	if g.Poisoned.Len() != legit.Len()+len(g.Poison) {
		return fmt.Errorf("greedy: poisoned set has %d keys, want %d", g.Poisoned.Len(), legit.Len()+len(g.Poison))
	}
	if len(g.Trajectory) != len(g.Poison) {
		return fmt.Errorf("greedy: %d trajectory points for %d poison keys", len(g.Trajectory), len(g.Poison))
	}
	if len(g.Poison) == 0 {
		return nil
	}
	fit, err := regression.FitCDF(g.Poisoned)
	if err != nil {
		return fmt.Errorf("greedy: refit: %w", err)
	}
	if last := g.Trajectory[len(g.Trajectory)-1]; math.Abs(fit.Loss-last) > lossTolerance*math.Abs(last) {
		return fmt.Errorf("greedy: refit MSE %v differs from final trajectory MSE %v", fit.Loss, last)
	}
	return nil
}

// checkRMI verifies Algorithm 2's output: distinct poison keys outside the
// legitimate set, as many as it reports injecting, within budget.
func checkRMI(legit keys.Set, r core.RMIAttackResult) error {
	if r.Injected > r.Budget || r.Poison.Len() != r.Injected {
		return fmt.Errorf("rmi: injected %d, poison set %d, budget %d", r.Injected, r.Poison.Len(), r.Budget)
	}
	if err := checkPoison(legit, r.Poison.Keys()); err != nil {
		return fmt.Errorf("rmi: %w", err)
	}
	return nil
}

// checkPoison reports a poison key that repeats or is already legitimate.
func checkPoison(legit keys.Set, poison []int64) error {
	seen := make(map[int64]bool, len(poison))
	for _, k := range poison {
		if seen[k] {
			return fmt.Errorf("poison key %d repeats", k)
		}
		seen[k] = true
		if legit.Contains(k) {
			return fmt.Errorf("poison key %d is a legitimate key", k)
		}
	}
	return nil
}
