package main

// Timing wrappers around the library's injection points. Each wrapper
// forwards exactly the optional interfaces its target implements
// (index.BatchReader, RebuildSizer, ParallelRetrainer, TriggerPredictor):
// a wrapper that dropped one would silently send the traced run down a
// fallback path the untraced run never takes. wrap_test.go pins this for
// every combination of faces.

import (
	"context"

	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/engine"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
)

// faceMask records which optional index interfaces a value implements.
type faceMask uint8

const (
	faceBatch faceMask = 1 << iota
	faceSizer
	faceParallel
	facePredictor
	allFaceMask = faceBatch | faceSizer | faceParallel | facePredictor
)

func facesOf(v any) faceMask {
	var m faceMask
	if _, ok := v.(index.BatchReader); ok {
		m |= faceBatch
	}
	if _, ok := v.(index.RebuildSizer); ok {
		m |= faceSizer
	}
	if _, ok := v.(index.ParallelRetrainer); ok {
		m |= faceParallel
	}
	if _, ok := v.(index.TriggerPredictor); ok {
		m |= facePredictor
	}
	return m
}

// optionalFaces is a value implementing every optional face; withFaces
// exposes the subset a mask selects.
type optionalFaces interface {
	index.BatchReader
	index.RebuildSizer
	index.ParallelRetrainer
	index.TriggerPredictor
}

// withFaces returns b extended by exactly the faces in m, each served by f.
// Go cannot add methods to a value at run time, so every subset is its own
// struct type.
func withFaces(b index.Backend, f optionalFaces, m faceMask) index.Backend {
	type (
		B  = index.Backend
		BR = index.BatchReader
		RS = index.RebuildSizer
		PR = index.ParallelRetrainer
		TP = index.TriggerPredictor
	)
	switch m {
	case 0:
		return b
	case faceBatch:
		return struct {
			B
			BR
		}{b, f}
	case faceSizer:
		return struct {
			B
			RS
		}{b, f}
	case faceBatch | faceSizer:
		return struct {
			B
			BR
			RS
		}{b, f, f}
	case faceParallel:
		return struct {
			B
			PR
		}{b, f}
	case faceBatch | faceParallel:
		return struct {
			B
			BR
			PR
		}{b, f, f}
	case faceSizer | faceParallel:
		return struct {
			B
			RS
			PR
		}{b, f, f}
	case faceBatch | faceSizer | faceParallel:
		return struct {
			B
			BR
			RS
			PR
		}{b, f, f, f}
	case facePredictor:
		return struct {
			B
			TP
		}{b, f}
	case faceBatch | facePredictor:
		return struct {
			B
			BR
			TP
		}{b, f, f}
	case faceSizer | facePredictor:
		return struct {
			B
			RS
			TP
		}{b, f, f}
	case faceBatch | faceSizer | facePredictor:
		return struct {
			B
			BR
			RS
			TP
		}{b, f, f, f}
	case faceParallel | facePredictor:
		return struct {
			B
			PR
			TP
		}{b, f, f}
	case faceBatch | faceParallel | facePredictor:
		return struct {
			B
			BR
			PR
			TP
		}{b, f, f, f}
	case faceSizer | faceParallel | facePredictor:
		return struct {
			B
			RS
			PR
			TP
		}{b, f, f, f}
	default:
		return struct {
			B
			BR
			RS
			PR
			TP
		}{b, f, f, f, f}
	}
}

// backendLayers maps a wrapper's methods to span layers. A substrate
// wrapper splits them by method; a guard wrapper puts everything in the
// defense layer, so the guard's self time is what it spends screening.
type backendLayers struct {
	insert, retrain, keys, snapshot, stats layer
	// substrate marks the innermost wrapper. Only it counts reads,
	// accepted inserts and retrains, and wraps snapshots, so work done
	// through a guard over a traced substrate is counted once.
	substrate bool
}

var (
	substrateLayers = backendLayers{lShardInsert, lShardRetrain, lShardKeys, lShardSnapshot, lShardStats, true}
	guardLayers     = backendLayers{lDefense, lDefense, lDefense, lDefense, lDefense, false}
)

// tracedBackend times the index.Backend contract of inner.
type tracedBackend struct {
	inner  index.Backend
	t      *tracer
	layers backendLayers
}

// traceBackend wraps b; the result implements exactly b's optional faces.
func traceBackend(t *tracer, b index.Backend, layers backendLayers) index.Backend {
	w := &tracedBackend{inner: b, t: t, layers: layers}
	return withFaces(w, backendFaces{w}, facesOf(b))
}

func (w *tracedBackend) Insert(k int64) (accepted, retrained bool) {
	w.t.begin(w.layers.insert)
	accepted, retrained = w.inner.Insert(k)
	w.t.end()
	if w.layers.substrate && w.t.on.Load() {
		if accepted {
			w.t.insertAccepted++
		}
		if retrained {
			w.t.policyRetrains++
			w.t.rebuildKeys += int64(rebuildSize(w.inner))
		}
	}
	return accepted, retrained
}

func (w *tracedBackend) Retrain() {
	w.t.begin(w.layers.retrain)
	w.inner.Retrain()
	w.t.end()
	w.countRetrain()
}

func (w *tracedBackend) countRetrain() {
	if w.layers.substrate && w.t.on.Load() {
		w.t.retrains++
		w.t.rebuildKeys += int64(rebuildSize(w.inner))
	}
}

// rebuildSize is what the retrain pipeline would price the last rebuild at.
func rebuildSize(b index.Backend) int {
	if rs, ok := b.(index.RebuildSizer); ok {
		return rs.LastRebuildSize()
	}
	return b.Len()
}

func (w *tracedBackend) Keys() keys.Set {
	w.t.begin(w.layers.keys)
	ks := w.inner.Keys()
	w.t.end()
	return ks
}

func (w *tracedBackend) Stats() index.Stats {
	w.t.begin(w.layers.stats)
	st := w.inner.Stats()
	w.t.end()
	return st
}

func (w *tracedBackend) Snapshot() index.Snapshot {
	w.t.begin(w.layers.snapshot)
	s := w.inner.Snapshot()
	w.t.end()
	if !w.layers.substrate {
		return s
	}
	return traceSnapshot(w.t, s)
}

func (w *tracedBackend) Len() int { return w.inner.Len() }

func (w *tracedBackend) Lookup(k int64) index.LookupResult {
	if !w.layers.substrate {
		return w.inner.Lookup(k)
	}
	return timedLookup(w.t, w.inner, k)
}

func (w *tracedBackend) ProbeSum(q []int64) (probes int64, notFound int) {
	if !w.layers.substrate {
		return w.inner.ProbeSum(q)
	}
	return timedBatch(w.t, q, w.inner.ProbeSum)
}

// backendFaces serves the optional faces of a tracedBackend.
type backendFaces struct{ w *tracedBackend }

func (f backendFaces) ProbeSumSorted(sorted []int64) (probes int64, notFound int) {
	br := f.w.inner.(index.BatchReader)
	if !f.w.layers.substrate {
		return br.ProbeSumSorted(sorted)
	}
	return timedBatch(f.w.t, sorted, br.ProbeSumSorted)
}

func (f backendFaces) LastRebuildSize() int {
	return f.w.inner.(index.RebuildSizer).LastRebuildSize()
}

func (f backendFaces) RetrainPossible() bool {
	return f.w.inner.(index.TriggerPredictor).RetrainPossible()
}

// RetrainParallel fans shard rebuilds across pool workers, so the fits
// inside it run concurrently: they stay off the span stack, and their time
// stays in this span.
func (f backendFaces) RetrainParallel(ctx context.Context, pool *engine.Pool) error {
	t := f.w.t
	t.fanout.Add(1)
	t.begin(f.w.layers.retrain)
	err := f.w.inner.(index.ParallelRetrainer).RetrainParallel(ctx, pool)
	t.end()
	t.fanout.Add(-1)
	f.w.countRetrain()
	return err
}

// tracedSnap counts the reads served from a snapshot.
type tracedSnap struct {
	inner index.Snapshot
	t     *tracer
}

// snapBatch adds the BatchReader face to a tracedSnap.
type snapBatch struct{ *tracedSnap }

func (s snapBatch) ProbeSumSorted(sorted []int64) (probes int64, notFound int) {
	return timedBatch(s.t, sorted, s.inner.(index.BatchReader).ProbeSumSorted)
}

// traceSnapshot wraps s; the result implements BatchReader iff s does.
func traceSnapshot(t *tracer, s index.Snapshot) index.Snapshot {
	w := &tracedSnap{inner: s, t: t}
	if _, ok := s.(index.BatchReader); ok {
		return snapBatch{w}
	}
	return w
}

func (s *tracedSnap) Lookup(k int64) index.LookupResult { return timedLookup(s.t, s.inner, k) }

func (s *tracedSnap) ProbeSum(q []int64) (probes int64, notFound int) {
	return timedBatch(s.t, q, s.inner.ProbeSum)
}

func (s *tracedSnap) Len() int { return s.inner.Len() }

func (s *tracedSnap) Keys() keys.Set {
	s.t.begin(lShardKeys)
	ks := s.inner.Keys()
	s.t.end()
	return ks
}

func timedLookup(t *tracer, r index.PointReader, k int64) index.LookupResult {
	l := t.lane()
	if l == nil {
		return r.Lookup(k)
	}
	var res index.LookupResult
	if l.lookups%lookupSample == 0 {
		start := t.now()
		res = r.Lookup(k)
		l.lookupNS += (t.now() - start) * lookupSample
	} else {
		res = r.Lookup(k)
	}
	l.lookups++
	l.probes += int64(res.Probes)
	t.putLane(l)
	return res
}

func timedBatch(t *tracer, q []int64, probe func([]int64) (int64, int)) (probes int64, notFound int) {
	l := t.lane()
	if l == nil {
		return probe(q)
	}
	start := t.now()
	probes, notFound = probe(q)
	l.batchNS += t.now() - start
	l.batches++
	l.batchKeys += int64(len(q))
	t.putLane(l)
	return probes, notFound
}

// traceFit times a shard FitFunc under layer l.
func traceFit(t *tracer, l layer, fit dynamic.FitFunc) dynamic.FitFunc {
	return func(ks keys.Set) (regression.Model, error) {
		if !t.on.Load() || t.fanout.Load() > 0 {
			return fit(ks)
		}
		t.begin(l)
		m, err := fit(ks)
		t.end()
		t.fitKeys[l] += int64(ks.Len())
		return m, err
	}
}
