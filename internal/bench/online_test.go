package bench

import (
	"reflect"
	"testing"

	"cdfpoison/internal/dynamic"
)

// TestOnlineSweepShape: the quick sweep emits one cell per (policy ×
// budget) pair and one epoch report per epoch in every cell — the CSV
// row-per-(epoch × budget × policy) contract of the -online runner.
func TestOnlineSweepShape(t *testing.T) {
	res, err := OnlineSweep(quick(1))
	if err != nil {
		t.Fatal(err)
	}
	n, epochs, budgets, policies := onlineShape(ScaleQuick)
	wantCells := len(budgets) * len(policies(n))
	if len(res.Cells) != wantCells {
		t.Fatalf("%d cells, want %d", len(res.Cells), wantCells)
	}
	if res.EpochsPerCell != epochs {
		t.Fatalf("EpochsPerCell = %d, want %d", res.EpochsPerCell, epochs)
	}
	seen := map[string]bool{}
	for _, c := range res.Cells {
		if len(c.Epochs) != epochs {
			t.Fatalf("cell %s/%v%%: %d epoch reports, want %d", c.Policy, c.BudgetPct, len(c.Epochs), epochs)
		}
		key := c.Policy.String() + "/" + string(rune('0'+int(c.BudgetPct)))
		if seen[key] {
			t.Fatalf("duplicate cell %s", key)
		}
		seen[key] = true
		// FinalRatio may dip below 1 for mid-stream retrain policies (later
		// honest arrivals re-shape the CDF after poison is absorbed), but
		// some epoch must show damage and ratios must stay positive.
		if c.FinalRatio() <= 0 || c.MaxRatio() < 1 || c.MaxRatio() < c.FinalRatio() {
			t.Fatalf("cell %s/%v%%: ratios final=%v max=%v", c.Policy, c.BudgetPct, c.FinalRatio(), c.MaxRatio())
		}
		for _, e := range c.Epochs {
			if e.Injected < 1 {
				t.Fatalf("cell %s/%v%% epoch %d injected nothing", c.Policy, c.BudgetPct, e.Epoch)
			}
		}
	}
	if res.MaxFinalRatio() <= 1 {
		t.Fatalf("max final ratio %v: the attack did nothing", res.MaxFinalRatio())
	}
}

// TestOnlineSweepPolicyRoster: all three retrain policies appear, and the
// manual cells retrain exactly once per epoch.
func TestOnlineSweepPolicyRoster(t *testing.T) {
	res, err := OnlineSweep(quick(1))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[dynamic.PolicyKind]bool{}
	for _, c := range res.Cells {
		kinds[c.Policy.Kind] = true
		if c.Policy.Kind == dynamic.Manual {
			last := c.Epochs[len(c.Epochs)-1]
			if last.Retrains != len(c.Epochs) {
				t.Fatalf("manual cell retrained %d times over %d epochs", last.Retrains, len(c.Epochs))
			}
		}
	}
	for _, k := range []dynamic.PolicyKind{dynamic.Manual, dynamic.EveryK, dynamic.BufferThreshold} {
		if !kinds[k] {
			t.Fatalf("policy kind %s missing from the sweep", k)
		}
	}
}

// TestOnlineSweepWorkerEquivalence: the full sweep — every cell, every
// epoch report — must be byte-identical across worker counts.
func TestOnlineSweepWorkerEquivalence(t *testing.T) {
	want, err := OnlineSweep(quick(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range equivWorkers() {
		got, err := OnlineSweep(quick(w))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: online sweep diverged from sequential", w)
		}
	}
}
