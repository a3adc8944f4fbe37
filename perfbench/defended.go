package main

// defended-online: core.OnlinePoisonAttack with a write-only honest arrival
// stream into a 4-shard index, the defense plane armed: the guard chain
// density:8:3|dupmass:3:3, the robust.Trimmed{10} fitter and 4:20 rate
// limiting over 8 sources. Each epoch ends with a manual retrain and a
// sorted-batch evaluation. A step is one whole scenario cell on a fresh key
// set; an op is one write attempt.
//
// The benchmark builds the guard in the backend factory instead of through
// core.DefenseSpec.Policies, so the traced run can time the guard apart
// from the substrate beneath it. The construction changes no epoch report
// (TestFactoryGuardMatchesCoreGuard); the guard's reject counts are read
// from the guards themselves.

import (
	"fmt"
	"os"

	"cdfpoison/internal/core"
	"cdfpoison/internal/dataset"
	"cdfpoison/internal/defense"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/robust"
	"cdfpoison/internal/shard"
	"cdfpoison/internal/xrand"
)

const (
	defN        = 4_000
	defDomain   = 40 // domain = defDomain × keys
	defShards   = 4
	defEpochs   = 4
	defArrivals = 100 // honest arrivals per epoch
	defBudget   = 20  // poison keys per epoch
	defChain    = "density:8:3|dupmass:3:3"
)

var (
	defFitter = robust.Trimmed{Pct: 10}
	defSpec   = core.DefenseSpec{RateBudget: 4, RateWindow: 20, Sources: 8}
)

type defVariant struct {
	initial  keys.Set
	arrivals [][]int64
}

type defWorkload struct {
	seed     uint64
	k        int // the episode cur holds the inputs of; -1 before the first
	cur      defVariant
	policies []defense.Policy
	workers  int
	last     []*defense.Guard // the latest episode's victim and clean twin
}

// defOut is one scenario cell's outputs.
type defOut struct {
	Episode                     int // fixes the inputs
	Result                      core.OnlineResult
	VictimFlagged, CleanFlagged int
	// Poison lists Result.Poison in full for the output digest: a large
	// keys.Set prints only as a summary.
	Poison []int64
}

func setupDefended(seed uint64, workers int) (runner, error) {
	policies, err := defense.ParsePolicyChain(defChain)
	if err != nil {
		return nil, err
	}
	w := &defWorkload{seed: seed, k: -1, policies: policies, workers: workers}
	// Warm-up: the first scenario cell, untimed.
	if _, err := w.run(0, nil); err != nil {
		return nil, err
	}
	return w, nil
}

// variant returns episode k's inputs, drawn fresh for every episode.
func (w *defWorkload) variant(k int) *defVariant {
	if w.k == k {
		return &w.cur
	}
	rng := xrand.New(w.seed<<32 ^ uint64(k))
	ks, err := dataset.Uniform(rng.Split(), defN, defDomain*defN)
	if err != nil { // unreachable: defN keys fit the domain
		panic(err)
	}
	v := defVariant{initial: ks, arrivals: make([][]int64, defEpochs)}
	arr := rng.Split()
	for e := range v.arrivals {
		for j := 0; j < defArrivals; j++ {
			v.arrivals[e] = append(v.arrivals[e], arr.Int63n(defDomain*defN))
		}
	}
	w.k, w.cur = k, v
	return &w.cur
}

// factory builds a guarded, robust-fit shard index; in the traced run the
// fit, the substrate and the guard are each wrapped. Every guard built is
// appended to guards, victim first (core builds the victim before the
// clean twin).
func (w *defWorkload) factory(t *tracer, guards *[]*defense.Guard) core.BackendFactory {
	return func(ks keys.Set) (index.Backend, error) {
		fit := dynamic.FitFunc(defFitter.Fit)
		if t != nil {
			fit = traceFit(t, lFitRobust, fit)
		}
		s, err := shard.NewWithFit(ks, defShards, dynamic.ManualPolicy(), fit)
		if err != nil {
			return nil, err
		}
		var sub index.Backend = s
		if t != nil {
			sub = traceBackend(t, s, substrateLayers)
		}
		g := defense.NewGuard(sub, defense.GuardOptions{Policies: w.policies})
		*guards = append(*guards, g)
		if t != nil {
			return traceBackend(t, g, guardLayers), nil
		}
		return g, nil
	}
}

func (w *defWorkload) options(v *defVariant, backend core.BackendFactory) core.OnlineOptions {
	return core.OnlineOptions{
		Epochs:      defEpochs,
		EpochBudget: defBudget,
		Policy:      dynamic.ManualPolicy(),
		Arrivals:    v.arrivals,
		Backend:     backend,
		Defense:     defSpec,
	}
}

func (w *defWorkload) run(k int, t *tracer) (episode, error) {
	var e episode
	v := w.variant(k)
	var guards []*defense.Guard
	o := w.options(v, w.factory(t, &guards))
	m := startMeter(t)
	res, err := onlineAttack(t, v.initial, o, core.WithWorkers(w.workers))
	m.stop(&e)
	if err != nil {
		return e, err
	}
	if len(guards) != 2 {
		return e, fmt.Errorf("factory built %d indexes, want a victim and a clean twin", len(guards))
	}
	d := res.Defense
	e.steps = []int64{e.wall}
	e.ops = int64(d.HonestAttempts + d.PoisonAttempts)
	e.defense = defenseCounts{
		attempts:  e.ops,
		flagged:   int64(guards[0].Flagged()),
		throttled: int64(d.ThrottledHonest + d.ThrottledPoison),
	}
	e.out = defOut{Episode: k, Result: res, VictimFlagged: guards[0].Flagged(), CleanFlagged: guards[1].Flagged(), Poison: res.Poison.Keys()}
	w.last = guards
	return e, nil
}

func (w *defWorkload) check(e *episode) int {
	out := e.out.(defOut)
	if err := checkOnline(w.variant(out.Episode).initial, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
		return 1
	}
	return 0
}

// checkOnline verifies a scenario cell: every epoch reported, per-epoch
// injections within budget and summing to the cumulative total, the
// poison set as large as that total and disjoint from the initial keys,
// and every honest arrival attempted once on the victim.
func checkOnline(initial keys.Set, out defOut) error {
	r := out.Result
	if len(r.Epochs) != defEpochs {
		return fmt.Errorf("online: %d epoch reports, want %d", len(r.Epochs), defEpochs)
	}
	total := 0
	for _, ep := range r.Epochs {
		total += ep.Injected
		if ep.Injected > defBudget || ep.PoisonTotal != total {
			return fmt.Errorf("online: epoch %d injected %d (budget %d), cumulative %d, want %d", ep.Epoch, ep.Injected, defBudget, ep.PoisonTotal, total)
		}
	}
	if r.Poison.Len() != total {
		return fmt.Errorf("online: poison set has %d keys, epochs injected %d", r.Poison.Len(), total)
	}
	if err := checkPoison(initial, r.Poison.Keys()); err != nil {
		return fmt.Errorf("online: %w", err)
	}
	if r.Defense.HonestAttempts != defEpochs*defArrivals {
		return fmt.Errorf("online: %d honest write attempts, want %d", r.Defense.HonestAttempts, defEpochs*defArrivals)
	}
	return nil
}

func (w *defWorkload) storedKeys() int {
	n := 0
	for _, g := range w.last {
		n += g.Len()
	}
	return n
}
