package main

// The traced run's accounting. Two mechanisms, chosen by who calls:
//
//   - Spans, for the single-writer plane: every write-plane or maintenance
//     call the benchmark's wrappers intercept (Insert, Retrain, Keys,
//     Snapshot, Stats, a CDF fit, a direct call into core, the serve
//     oracle) pushes a frame on one stack and pops it on return. A span's
//     self time is its duration minus the spans nested inside it, so the
//     self times of all layers add up to the time covered by outermost
//     spans, with nothing counted twice.
//   - Lanes, for reads: lookups and batch probes may run on many goroutines
//     at once (serve readers, core's evaluation workers), so they never
//     touch the stack. Each goroutine that reads borrows a private lane of
//     counters (calls, keys, probes, busy ns) from a sync.Pool; lanes are
//     summed only after the workload has joined its goroutines. Reading the
//     clock costs about as much as a lookup, so a lane times one lookup in
//     lookupSample and scales the busy time up; batches are always timed.

import (
	"sync"
	"sync/atomic"
	"time"
)

// layer names one span bucket. The per-layer metrics are built from these.
type layer int

const (
	lCoreGreedy    layer = iota // core.GreedyMultiPoint, called directly
	lCoreRMI                    // core.RMIAttack, called directly
	lCoreScenario               // core.OnlinePoisonAttack
	lOracle                     // the serve.Oracle the benchmark supplies
	lServe                      // serve.RunConcurrent
	lDefense                    // every call into a defense.Guard
	lShardInsert                // Insert on the substrate
	lShardRetrain               // Retrain / RetrainParallel on the substrate
	lShardKeys                  // Keys() on the substrate or its snapshots
	lShardSnapshot              // Snapshot() on the substrate
	lShardStats                 // Stats() on the substrate
	lFitOLS                     // regression.FitCDF passed as the shard FitFunc
	lFitRobust                  // robust.Trimmed.Fit passed as the shard FitFunc
	numLayers
)

var layerNames = [numLayers]string{
	"core.greedy", "core.rmi", "core.scenario", "core.oracle", "serve.run",
	"defense.guard", "shard.insert", "shard.retrain", "shard.keys",
	"shard.snapshot", "shard.stats", "regression.fit", "robust.fit",
}

func (l layer) String() string { return layerNames[l] }

// spanAcc accumulates one layer's spans.
type spanAcc struct {
	calls int64
	total int64 // ns, including nested spans
	self  int64 // ns, excluding nested spans
}

type frame struct {
	l     layer
	start int64
	child int64 // ns covered by spans nested directly inside this one
}

// lookupSample is how many lookups a lane counts per lookup it times.
const lookupSample = 16

// reads are read-plane counters: one lane's, or the sum of all lanes.
type reads struct {
	lookups, lookupNS, probes   int64
	batches, batchKeys, batchNS int64
}

// lane is one reading goroutine's private counters. A lane is held by one
// goroutine at a time; sync.Pool orders a Put before the Get that returns
// the same lane, so plain fields need no atomics.
type lane struct {
	reads
	_ [16]byte // keep neighbouring lanes off one cache line
}

// tracer is the traced run's recorder. A nil *tracer is the untraced run:
// every wrapper and helper checks for nil and calls straight through.
type tracer struct {
	now func() int64 // monotonic ns; replaced by a fake clock in tests

	// on gates all recording: the harness arms it only inside step
	// regions, so work done between steps (such as rebuilding an index
	// for the next episode) never lands in a layer.
	on atomic.Bool

	stack []frame
	spans [numLayers]spanAcc

	// fanout counts open parallel retrains: the fits inside one run on
	// pool workers concurrently, so they stay in the retrain's span.
	fanout atomic.Int32

	// Counters recorded where the work happens.
	fitKeys        [numLayers]int64 // keys handed to each fit layer
	insertAccepted int64
	policyRetrains int64 // retrains an Insert triggered
	retrains       int64 // explicit Retrain calls
	rebuildKeys    int64 // keys rebuilt, over both kinds of retrain
	candidates     int64 // greedy endpoint evaluations
	blocksVisited  int64
	blocksTotal    int64
	greedyPoison   int64 // poison keys greedy produced
	oracleCPU      int64 // process CPU ns across direct core calls
	oracleWall     int64 // wall ns across the same calls

	laneMu sync.Mutex
	lanes  []*lane
	pool   sync.Pool
}

var clockBase = time.Now()

func monotonicNS() int64 { return int64(time.Since(clockBase)) }

func newTracer() *tracer {
	t := &tracer{now: monotonicNS}
	t.pool.New = func() any {
		l := new(lane)
		t.laneMu.Lock()
		t.lanes = append(t.lanes, l)
		t.laneMu.Unlock()
		return l
	}
	return t
}

// begin opens a span on the writer's stack.
func (t *tracer) begin(l layer) {
	if !t.on.Load() {
		return
	}
	t.stack = append(t.stack, frame{l: l, start: t.now()})
}

// end closes the innermost span and returns its duration.
func (t *tracer) end() int64 {
	if !t.on.Load() || len(t.stack) == 0 {
		return 0
	}
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := t.now() - f.start
	acc := &t.spans[f.l]
	acc.calls++
	acc.total += d
	acc.self += d - f.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
	return d
}

// lane borrows a private lane for one read; give it back with putLane.
func (t *tracer) lane() *lane {
	if !t.on.Load() {
		return nil
	}
	return t.pool.Get().(*lane)
}

func (t *tracer) putLane(l *lane) { t.pool.Put(l) }

// readTotals sums every lane. Call it only after the readers have joined.
func (t *tracer) readTotals() reads {
	t.laneMu.Lock()
	defer t.laneMu.Unlock()
	var r reads
	for _, l := range t.lanes {
		r.lookups += l.lookups
		r.lookupNS += l.lookupNS
		r.probes += l.probes
		r.batches += l.batches
		r.batchKeys += l.batchKeys
		r.batchNS += l.batchNS
	}
	return r
}

// selfTotal is the time attributed to layers: the sum of every layer's
// self time, which equals the time covered by outermost spans.
func (t *tracer) selfTotal() int64 {
	var s int64
	for i := range t.spans {
		s += t.spans[i].self
	}
	return s
}
