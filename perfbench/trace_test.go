package main

import (
	"reflect"
	"sync"
	"testing"

	"cdfpoison/internal/core"
	"cdfpoison/internal/defense"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
	"cdfpoison/internal/shard"
)

// nestedShape builds guard ⊃ shard insert ⊃ fit on a tiny index whose
// every insert retrains, so each guarded insert nests all three.
func nestedShape(t *testing.T, tr *tracer) index.Backend {
	t.Helper()
	fit := traceFit(tr, lFitOLS, regression.FitCDF)
	sh, err := shard.NewWithFit(testKeys(64, 11), 2, dynamic.EveryKInserts(1), fit)
	if err != nil {
		t.Fatal(err)
	}
	policies, err := defense.ParsePolicyChain(defChain)
	if err != nil {
		t.Fatal(err)
	}
	g := defense.NewGuard(traceBackend(tr, sh, substrateLayers), defense.GuardOptions{Policies: policies})
	return traceBackend(tr, g, guardLayers)
}

// TestSelfTimeAccounting checks, on a clock that advances one tick per
// read, that nested spans give non-negative self times and that attributed
// time plus the unattributed remainder is the step's wall time exactly,
// with every nested span counted once.
func TestSelfTimeAccounting(t *testing.T) {
	for _, fake := range []bool{true, false} {
		tr := newTracer()
		if fake {
			var tick int64
			tr.now = func() int64 { tick++; return tick }
		}
		b := nestedShape(t, tr)
		tr.on.Store(true)
		start := tr.now()
		for k := int64(1); k < 400; k += 37 {
			b.Insert(k)
		}
		b.Retrain()
		wall := tr.now() - start
		tr.on.Store(false)

		sp := tr.spans
		for l := layer(0); l < numLayers; l++ {
			if sp[l].self < 0 || sp[l].self > sp[l].total {
				t.Errorf("fake=%v %s: self %d outside [0, total %d]", fake, l, sp[l].self, sp[l].total)
			}
		}
		if sp[lShardInsert].calls == 0 || sp[lFitOLS].calls == 0 || sp[lDefense].calls == 0 {
			t.Fatalf("fake=%v: shape did not nest: %+v", fake, sp)
		}
		// The guard's spans are the outermost ones, so their totals are the
		// attributed time; every nested span lies inside exactly one.
		if got, want := tr.selfTotal(), sp[lDefense].total; got != want {
			t.Errorf("fake=%v: self times sum to %d, outermost spans cover %d", fake, got, want)
		}
		children := sp[lShardInsert].total + sp[lShardKeys].total + sp[lShardRetrain].total + sp[lShardStats].total
		if got := sp[lDefense].self + children; got != sp[lDefense].total {
			t.Errorf("fake=%v: guard self %d + children %d != guard total %d", fake, sp[lDefense].self, children, sp[lDefense].total)
		}
		unattributed := wall - tr.selfTotal()
		if unattributed < 0 {
			t.Errorf("fake=%v: negative unattributed time %d", fake, unattributed)
		}
		if fake && tr.selfTotal()+unattributed != wall {
			t.Errorf("attributed %d + unattributed %d != wall %d", tr.selfTotal(), unattributed, wall)
		}
		if len(tr.stack) != 0 {
			t.Errorf("fake=%v: %d spans left open", fake, len(tr.stack))
		}
	}
}

// TestLookupsUseLanes serves lookups from several goroutines at once while
// the writer holds a span open: reads must land in lanes, never on the
// span stack, and every lookup must be counted once. Run with -race.
func TestLookupsUseLanes(t *testing.T) {
	tr := newTracer()
	ks := testKeys(500, 3)
	sh, err := shard.New(ks, 4, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	b := traceBackend(tr, sh, substrateLayers)
	tr.on.Store(true)
	snap := b.Snapshot()
	tr.begin(lServe)
	const readers, per = 4, 1000
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				snap.Lookup(ks.At((r*per + i) % ks.Len()))
			}
			index.ProbeSumSorted(snap, ks.Keys()[:100])
		}(r)
	}
	wg.Wait()
	if len(tr.stack) != 1 {
		t.Fatalf("reads touched the span stack: depth %d", len(tr.stack))
	}
	tr.end()
	rd := tr.readTotals()
	if rd.lookups != readers*per || rd.batches != readers || rd.batchKeys != readers*100 {
		t.Errorf("lanes counted %d lookups, %d batches, %d batch keys", rd.lookups, rd.batches, rd.batchKeys)
	}
	if rd.probes <= 0 || rd.lookupNS < 0 {
		t.Errorf("lanes counted %d probes, %d busy ns", rd.probes, rd.lookupNS)
	}
}

// TestTracedMatchesUntraced runs the first episode of every workload both
// ways: the outputs must be identical and pass their checks.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, def := range workloads {
		w, err := def.setup(3, 2)
		if err != nil {
			t.Fatalf("%s: setup: %v", def.name, err)
		}
		u, err := w.run(0, nil)
		if err != nil {
			t.Fatalf("%s: untraced: %v", def.name, err)
		}
		tr := newTracer()
		v, err := w.run(0, tr)
		if err != nil {
			t.Fatalf("%s: traced: %v", def.name, err)
		}
		if !reflect.DeepEqual(u.out, v.out) {
			t.Errorf("%s: traced outputs differ from untraced", def.name)
		}
		if bad := w.check(&u); bad != 0 {
			t.Errorf("%s: %d steps failed their checks", def.name, bad)
		}
		if len(tr.stack) != 0 || tr.selfTotal() <= 0 {
			t.Errorf("%s: stack depth %d, attributed %d ns", def.name, len(tr.stack), tr.selfTotal())
		}
	}
}

// TestFactoryGuardMatchesCoreGuard pins the defended-online construction:
// building the guard in the backend factory gives the same epoch reports,
// poison and defense accounting as arming it through DefenseSpec.Policies.
func TestFactoryGuardMatchesCoreGuard(t *testing.T) {
	r, err := setupDefended(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := r.(*defWorkload)
	for vi := 0; vi < 2; vi++ {
		v := w.variant(vi)
		var guards []*defense.Guard
		viaFactory, err := core.OnlinePoisonAttack(v.initial, w.options(v, w.factory(nil, &guards)), core.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		o := w.options(v, func(ks keys.Set) (index.Backend, error) {
			return shard.NewWithFit(ks, defShards, dynamic.ManualPolicy(), defFitter.Fit)
		})
		o.Defense.Policies = w.policies
		viaCore, err := core.OnlinePoisonAttack(v.initial, o, core.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(viaFactory.Epochs, viaCore.Epochs) || !viaFactory.Poison.Equal(viaCore.Poison) {
			t.Errorf("variant %d: epoch reports or poison differ between the constructions", vi)
		}
		d := viaCore.Defense
		if got, want := guards[0].Flagged(), d.FlaggedHonest+d.FlaggedPoison; got != want {
			t.Errorf("variant %d: victim guard flagged %d, core counted %d", vi, got, want)
		}
		if got, want := guards[1].Flagged(), d.CleanFlagged; got != want {
			t.Errorf("variant %d: clean guard flagged %d, core counted %d", vi, got, want)
		}
		f := viaFactory.Defense
		if f.ThrottledHonest != d.ThrottledHonest || f.ThrottledPoison != d.ThrottledPoison || f.HonestAttempts != d.HonestAttempts || f.PoisonAttempts != d.PoisonAttempts {
			t.Errorf("variant %d: rate-limit accounting differs: %+v vs %+v", vi, f, d)
		}
	}
}
