package main

// serve-zipf: serve.RunConcurrent over an 8-shard index under zipf:1.1
// traffic with 90% reads, a size-proportional rebuild cost and a greedy
// poison oracle with a small budget each epoch. One writer, one reader per
// CPU. A step is one epoch; an op is one honest or poison operation.
//
// An episode is one RunConcurrent call of serveEpochs epochs on a freshly
// built index, so every episode serves an index of the same size and the
// step times do not drift with run length. The first epoch of an episode
// also carries RunConcurrent's start-up and costs about twice as much as
// the others; with 20 epochs it is 5% of the steps, so step_p90_ms is read
// from the steady epochs and not from the edge of that cluster.

import (
	"context"
	"fmt"
	"os"

	"cdfpoison/internal/core"
	"cdfpoison/internal/dataset"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
	"cdfpoison/internal/serve"
	"cdfpoison/internal/shard"
	"cdfpoison/internal/workload"
	"cdfpoison/internal/xrand"
)

const (
	serveN      = 100_000
	serveDomain = 40 // domain = serveDomain × keys
	serveShards = 8
	serveBuffer = 256 // BufferLimit per shard
	serveEpochs = 20  // epochs (steps) per episode; see the top of this file
	serveOps    = 20_000
	serveBudget = 8 // poison keys per epoch
)

var (
	serveCost = index.CostModel{Fixed: 10, PerKey: 25, Unit: 100}
	serveMix  = workload.NewZipf(1.1, 90)
)

type serveWorkload struct {
	seed    uint64
	k       int // the episode initial holds the keys of; -1 before the first
	initial keys.Set
	workers int
	last    index.Backend // the latest episode's index, for heap_bytes_per_key
}

func setupServe(seed uint64, workers int) (runner, error) {
	w := &serveWorkload{seed: seed, k: -1, workers: workers}
	// Warm-up: one epoch of the first episode, untimed.
	b, err := w.build(0, nil)
	if err != nil {
		return nil, err
	}
	var marks []int64
	o := w.options(0, nil, &marks)
	o.Epochs = 1
	if _, err := serve.RunConcurrent(context.Background(), b, o, serve.Options{Readers: workers}); err != nil {
		return nil, err
	}
	w.last = b
	return w, nil
}

// build makes episode k's index over a key set drawn fresh for every
// episode; in the traced run the substrate and its fit are wrapped.
func (w *serveWorkload) build(k int, t *tracer) (index.Backend, error) {
	if w.k != k {
		ks, err := dataset.Uniform(xrand.New(w.seed<<32^uint64(k)).Split(), serveN, serveDomain*serveN)
		if err != nil {
			return nil, err
		}
		w.k, w.initial = k, ks
	}
	fit := dynamic.FitFunc(regression.FitCDF)
	if t != nil {
		fit = traceFit(t, lFitOLS, fit)
	}
	s, err := shard.NewWithFit(w.initial, serveShards, dynamic.BufferLimit(serveBuffer), fit)
	if err != nil {
		return nil, err
	}
	if t != nil {
		return traceBackend(t, s, substrateLayers), nil
	}
	return s, nil
}

// options are episode k's scenario options. The oracle appends to marks
// the time each epoch's oracle call starts: the epoch boundaries.
func (w *serveWorkload) options(k int, t *tracer, marks *[]int64) serve.ScenarioOptions {
	return serve.ScenarioOptions{
		Epochs:      serveEpochs,
		OpsPerEpoch: serveOps,
		EpochBudget: serveBudget,
		Workload:    serveMix,
		Domain:      serveDomain * serveN,
		Seed:        w.seed<<32 ^ uint64(k),
		Cost:        serveCost,
		Oracle: func(visible keys.Set, budget int) ([]int64, error) {
			*marks = append(*marks, monotonicNS())
			if t != nil {
				t.begin(lOracle)
				defer t.end()
			}
			g, err := greedy(t, visible, budget, core.WithWorkers(w.workers))
			return g.Poison, err
		},
	}
}

func (w *serveWorkload) run(k int, t *tracer) (episode, error) {
	var e episode
	b, err := w.build(k, t)
	if err != nil {
		return e, err
	}
	marks := make([]int64, 0, serveEpochs)
	o := w.options(k, t, &marks)
	m := startMeter(t)
	start := monotonicNS()
	ms, err := runConcurrent(t, b, o, serve.Options{Readers: w.workers})
	end := monotonicNS()
	m.stop(&e)
	if err != nil {
		return e, err
	}
	if len(marks) != len(ms) {
		return e, fmt.Errorf("oracle ran %d times over %d epochs", len(marks), len(ms))
	}
	// Epoch i runs from its oracle call to the next one; the first also
	// covers RunConcurrent's start-up, the last its shut-down.
	for i := range marks {
		from, to := marks[i], end
		if i == 0 {
			from = start
		}
		if i+1 < len(marks) {
			to = marks[i+1]
		}
		e.steps = append(e.steps, to-from)
	}
	for _, em := range ms {
		e.ops += int64(em.Reads + em.Writes + em.Injected)
		e.idx.retrains += int64(em.Retrains)
		e.idx.publishes += int64(em.Publishes)
		e.idx.coalesced += int64(em.Coalesced)
		e.idx.staleReads += int64(em.StaleReads)
		e.idx.reads += int64(em.Reads)
	}
	e.out = ms
	w.last = b
	return e, nil
}

func (w *serveWorkload) check(e *episode) int {
	ms := e.out.([]serve.EpochMetrics)
	bad := 0
	for _, em := range ms {
		if em.Reads+em.Writes != serveOps || em.Injected > serveBudget {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: epoch %d served %d reads + %d writes (want %d ops), injected %d (budget %d)\n",
				em.Epoch, em.Reads, em.Writes, serveOps, em.Injected, serveBudget)
			bad++
		}
	}
	if len(ms) != serveEpochs {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %d epochs, want %d\n", len(ms), serveEpochs)
		return len(e.steps)
	}
	return bad
}

func (w *serveWorkload) storedKeys() int { return w.last.Len() }
