package main

// Direct calls into the library's entry points, timed in the traced run,
// and the meter that measures a step region's CPU time and allocations.

import (
	"context"
	"runtime"
	"runtime/metrics"
	"syscall"

	"cdfpoison/internal/core"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/serve"
)

// cpuNS returns the process's user+system CPU time in ns.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes returns the bytes allocated on the heap since the process
// started. Unlike runtime.ReadMemStats it does not stop the world.
func allocBytes() int64 {
	metrics.Read(allocSample)
	return int64(allocSample[0].Value.Uint64())
}

// liveHeapBytes returns the heap the last GC found live.
func liveHeapBytes() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// meter measures one step region: wall time, process CPU time and heap
// allocation. Open it with startMeter right before the region and read it
// with stop right after; it also arms the tracer for the region. It first
// collects the garbage the benchmark made outside the region (generated
// inputs, the last episode's outputs), so that collecting it does not land
// in the step; the program's own allocations are collected inside as usual.
type meter struct {
	t                   *tracer
	wall0, cpu0, alloc0 int64
}

func startMeter(t *tracer) meter {
	runtime.GC()
	m := meter{t: t, cpu0: cpuNS(), alloc0: allocBytes()}
	if t != nil {
		t.on.Store(true)
	}
	m.wall0 = monotonicNS()
	return m
}

// stop closes the region and adds its costs to r.
func (m meter) stop(r *episode) {
	wall := monotonicNS() - m.wall0
	if m.t != nil {
		m.t.on.Store(false)
	}
	r.wall += wall
	r.cpuNS += cpuNS() - m.cpu0
	r.allocBytes += allocBytes() - m.alloc0
}

// oracleCall times a direct core call in the traced run, including the
// process CPU it burns (all goroutines), for engine.oracle_cores_busy.
func oracleCall(t *tracer, l layer, call func()) {
	if t == nil {
		call()
		return
	}
	c0 := cpuNS()
	t.begin(l)
	call()
	d := t.end()
	t.oracleCPU += cpuNS() - c0
	t.oracleWall += d
}

func greedy(t *tracer, ks keys.Set, p int, opts ...core.Option) (g core.GreedyResult, err error) {
	oracleCall(t, lCoreGreedy, func() { g, err = core.GreedyMultiPoint(ks, p, opts...) })
	if t != nil && err == nil {
		t.candidates += int64(g.Candidates)
		t.blocksVisited += int64(g.BlocksVisited)
		t.blocksTotal += int64(g.BlocksTotal)
		t.greedyPoison += int64(len(g.Poison))
	}
	return g, err
}

func rmiAttack(t *tracer, ks keys.Set, o core.RMIAttackOptions, opts ...core.Option) (r core.RMIAttackResult, err error) {
	oracleCall(t, lCoreRMI, func() { r, err = core.RMIAttack(ks, o, opts...) })
	return r, err
}

func onlineAttack(t *tracer, ks keys.Set, o core.OnlineOptions, opts ...core.Option) (r core.OnlineResult, err error) {
	if t == nil {
		return core.OnlinePoisonAttack(ks, o, opts...)
	}
	t.begin(lCoreScenario)
	r, err = core.OnlinePoisonAttack(ks, o, opts...)
	t.end()
	return r, err
}

func runConcurrent(t *tracer, b index.Backend, o serve.ScenarioOptions, p serve.Options) (m []serve.EpochMetrics, err error) {
	if t == nil {
		return serve.RunConcurrent(context.Background(), b, o, p)
	}
	t.begin(lServe)
	m, err = serve.RunConcurrent(context.Background(), b, o, p)
	t.end()
	return m, err
}
