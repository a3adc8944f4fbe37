package main

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"cdfpoison/internal/defense"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/engine"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/shard"
)

// fakeBackend implements the bare index.Backend contract and nothing else.
type fakeBackend struct{}

func (fakeBackend) Snapshot() index.Snapshot  { return fakeSnap{} }
func (fakeBackend) Insert(int64) (bool, bool) { return true, false }
func (fakeBackend) Retrain()                  {}
func (fakeBackend) Stats() index.Stats        { return index.Stats{} }
func (fakeBackend) Lookup(int64) index.LookupResult {
	return index.LookupResult{Found: true, Probes: 1}
}
func (fakeBackend) ProbeSum(q []int64) (int64, int) { return int64(len(q)), 0 }
func (fakeBackend) Len() int                        { return 0 }
func (fakeBackend) Keys() keys.Set                  { return keys.Set{} }

// fakeFaces serves every optional face for withFaces.
type fakeFaces struct{}

func (fakeFaces) ProbeSumSorted(q []int64) (int64, int)               { return int64(len(q)), 0 }
func (fakeFaces) LastRebuildSize() int                                { return 7 }
func (fakeFaces) RetrainParallel(context.Context, *engine.Pool) error { return nil }
func (fakeFaces) RetrainPossible() bool                               { return true }

// fakeSnap is a snapshot without the batch face; fakeBatchSnap adds it.
type fakeSnap struct{}

func (fakeSnap) Lookup(int64) index.LookupResult { return index.LookupResult{Found: true, Probes: 1} }
func (fakeSnap) ProbeSum(q []int64) (int64, int) { return int64(len(q)), 0 }
func (fakeSnap) Len() int                        { return 0 }
func (fakeSnap) Keys() keys.Set                  { return keys.Set{} }

type fakeBatchSnap struct{ fakeSnap }

func (fakeBatchSnap) ProbeSumSorted(q []int64) (int64, int) { return int64(len(q)), 0 }

// TestWrapperFacesMatchTarget pins that a timing wrapper implements exactly
// the optional interfaces of what it wraps, for every subset of faces, in
// both the substrate and the guard role.
func TestWrapperFacesMatchTarget(t *testing.T) {
	tr := newTracer()
	for m := faceMask(0); m <= allFaceMask; m++ {
		target := withFaces(fakeBackend{}, fakeFaces{}, m)
		if got := facesOf(target); got != m {
			t.Fatalf("withFaces(%04b) built a target with faces %04b", m, got)
		}
		for _, layers := range []backendLayers{substrateLayers, guardLayers} {
			w := traceBackend(tr, target, layers)
			if got := facesOf(w); got != m {
				t.Errorf("wrapper of a target with faces %04b has faces %04b", m, got)
			}
		}
	}
	for _, s := range []index.Snapshot{fakeSnap{}, fakeBatchSnap{}} {
		if got, want := facesOf(traceSnapshot(tr, s)), facesOf(s); got != want {
			t.Errorf("snapshot wrapper of %T has faces %04b, want %04b", s, got, want)
		}
	}
}

// TestWrappersOverRealBackends wraps the benchmark's real targets and
// checks faces and answers against the bare values.
func TestWrappersOverRealBackends(t *testing.T) {
	ks := testKeys(400, 7)
	sh, err := shard.New(ks, 4, dynamic.BufferLimit(8))
	if err != nil {
		t.Fatal(err)
	}
	dy, err := dynamic.New(ks, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	policies, err := defense.ParsePolicyChain(defChain)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	tr.on.Store(true)
	guarded := defense.NewGuard(traceBackend(tr, sh, substrateLayers), defense.GuardOptions{Policies: policies})
	sorted := ks.Keys()[:200]
	for _, c := range []struct {
		name   string
		target index.Backend
		layers backendLayers
	}{
		{"shard", sh, substrateLayers},
		{"dynamic", dy, substrateLayers},
		{"guard over traced shard", guarded, guardLayers},
	} {
		w := traceBackend(tr, c.target, c.layers)
		if got, want := facesOf(w), facesOf(c.target); got != want {
			t.Errorf("%s: wrapper faces %04b, target faces %04b", c.name, got, want)
		}
		snap, wsnap := c.target.Snapshot(), w.Snapshot()
		if got, want := facesOf(wsnap), facesOf(snap); got != want {
			t.Errorf("%s: snapshot wrapper faces %04b, target snapshot faces %04b", c.name, got, want)
		}
		p0, n0 := index.ProbeSumSorted(c.target, sorted)
		p1, n1 := index.ProbeSumSorted(w, sorted)
		p2, n2 := index.ProbeSumSorted(wsnap, sorted)
		if p0 != p1 || n0 != n1 || p0 != p2 || n0 != n2 {
			t.Errorf("%s: batch probes target (%d,%d), wrapper (%d,%d), snapshot (%d,%d)", c.name, p0, n0, p1, n1, p2, n2)
		}
		if !reflect.DeepEqual(c.target.Lookup(ks.At(3)), w.Lookup(ks.At(3))) {
			t.Errorf("%s: lookups differ", c.name)
		}
	}
}

func testKeys(n int, stride int64) keys.Set {
	raw := make([]int64, n)
	for i := range raw {
		raw[i] = int64(i)*stride + int64(i*i%5)
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
	ks, err := keys.New(raw)
	if err != nil {
		panic(err)
	}
	return ks
}
