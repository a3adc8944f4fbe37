package core

// Tests for the scenario-side batch-eval plumbing (probeeval.go): the
// steady-state allocation budget and the batched-vs-per-key scenario
// differential (WithPerKeyEval must change the Eval accounting and nothing
// else). The kernel-vs-reference bit-identity itself is pinned where the
// kernels live, in internal/index's differential and fuzz suites.

import (
	"reflect"
	"testing"

	"cdfpoison/internal/dataset"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/xrand"
)

// TestProbeEvalZeroAllocs pins the epoch-eval allocation budget: once the
// scratch is warm, a steady-state epoch (unchanged workload) allocates
// NOTHING — no sorted-cache copy, no per-call buffer — at any worker count.
func TestProbeEvalZeroAllocs(t *testing.T) {
	initial, err := dataset.Uniform(xrand.New(31), 2000, 80000)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := dynamic.New(initial, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	clean, err := dynamic.New(initial, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	legit := initial.Keys()
	for _, workers := range []int{1, 4} {
		ex := newExec([]Option{WithWorkers(workers)})
		pe := &probeEval{}
		pe.refresh(legit)
		allocs := testing.AllocsPerRun(20, func() {
			pe.refresh(legit) // steady state: length unchanged, no copy
			if _, err := pe.measurePair(ex, pe.sorted, clean, victim); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("workers=%d: steady-state epoch eval allocates %.1f objects/run, want 0", workers, allocs)
		}
	}
}

// TestPerKeyEvalEquivalence is the scenario-level ablation differential:
// for each serving scenario, the batched run and the WithPerKeyEval run
// must agree on every column — only the Eval accounting may differ, and it
// must land on the expected side in each run.
func TestPerKeyEvalEquivalence(t *testing.T) {
	checkEval := func(t *testing.T, batched, perKey EvalStats) {
		t.Helper()
		if batched.BatchedKeys == 0 || batched.PerKeyKeys != 0 {
			t.Fatalf("batched run accounting = %+v, want all keys on BatchedKeys", batched)
		}
		if perKey.PerKeyKeys == 0 || perKey.BatchedKeys != 0 {
			t.Fatalf("per-key run accounting = %+v, want all keys on PerKeyKeys", perKey)
		}
		if batched.BatchedKeys != perKey.PerKeyKeys {
			t.Fatalf("eval key counts differ: batched evaluated %d, per-key %d",
				batched.BatchedKeys, perKey.PerKeyKeys)
		}
	}

	t.Run("static", func(t *testing.T) {
		initial := serveFixture(t, 400)
		opts := StaticOptions{Budget: 30, HonestWrites: 60, Seed: 3}
		want, err := StaticAttack(initial, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := StaticAttack(initial, opts, WithPerKeyEval())
		if err != nil {
			t.Fatal(err)
		}
		checkEval(t, want.Eval, got.Eval)
		want.Eval, got.Eval = EvalStats{}, EvalStats{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("static scenario diverged under WithPerKeyEval\n got: %+v\nwant: %+v", got, want)
		}
	})

	t.Run("online", func(t *testing.T) {
		initial, arrivals := onlineFixture(t, 400, 3, 10)
		opts := OnlineOptions{Epochs: 3, EpochBudget: 20, Policy: dynamic.ManualPolicy(), Arrivals: arrivals}
		want, err := OnlinePoisonAttack(initial, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := OnlinePoisonAttack(initial, opts, WithPerKeyEval())
		if err != nil {
			t.Fatal(err)
		}
		checkEval(t, want.Eval, got.Eval)
		want.Eval, got.Eval = EvalStats{}, EvalStats{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("online scenario diverged under WithPerKeyEval\n got: %+v\nwant: %+v",
				got.Epochs, want.Epochs)
		}
	})

	t.Run("serve", func(t *testing.T) {
		initial := serveFixture(t, 400)
		opts := serveOpts(3)
		want, err := ServeAttack(initial, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ServeAttack(initial, opts, WithPerKeyEval())
		if err != nil {
			t.Fatal(err)
		}
		checkEval(t, want.Eval, got.Eval)
		want.Eval, got.Eval = EvalStats{}, EvalStats{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("serve scenario diverged under WithPerKeyEval\n got: %+v\nwant: %+v",
				got.Epochs, want.Epochs)
		}
	})
}
