package bench

import (
	"reflect"
	"runtime"
	"testing"
)

func TestChurnSweepShape(t *testing.T) {
	opts := Options{Scale: ScaleQuick, Seed: 7}
	res, err := ChurnSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 { // quick: 3 cost models × 2 budgets
		t.Fatalf("%d cells, want 6", len(res.Cells))
	}
	for _, c := range res.Cells {
		if len(c.Epochs) != res.EpochsPerCell {
			t.Fatalf("cell cost=%s budget=%g: %d epochs, want %d",
				c.Cost, c.BudgetPct, len(c.Epochs), res.EpochsPerCell)
		}
		if c.Cost.Zero() {
			// The synchronous control: no staleness, no latency.
			if c.MaxStaleFrac() != 0 || c.VictimChurn.MaxLatencyTicks != 0 || c.VictimChurn.StaleTicks != 0 {
				t.Fatalf("zero-cost cell accrued staleness: %+v", c)
			}
			continue
		}
		if c.VictimChurn.Publishes == 0 {
			t.Fatalf("cell cost=%s budget=%g: no rebuild ever published", c.Cost, c.BudgetPct)
		}
		if c.MaxStaleFrac() <= 0 {
			t.Fatalf("cell cost=%s budget=%g: no stale reads", c.Cost, c.BudgetPct)
		}
		if c.VictimChurn.StaleTicks <= c.CleanChurn.StaleTicks {
			t.Fatalf("cell cost=%s budget=%g: victim stale ticks %d not above clean %d",
				c.Cost, c.BudgetPct, c.VictimChurn.StaleTicks, c.CleanChurn.StaleTicks)
		}
	}
	if res.MaxStaleFrac() <= 0 {
		t.Fatalf("sweep headline %v — no cell registered staleness", res.MaxStaleFrac())
	}
	if res.MaxLatency() <= 0 {
		t.Fatal("no cell registered publish latency")
	}
}

// TestChurnSweepWorkerEquivalence: the sweep's cell fan-out preserves the
// determinism contract byte for byte.
func TestChurnSweepWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick sweep three times")
	}
	opts := Options{Scale: ScaleQuick, Seed: 11}
	opts.Workers = 1
	want, err := ChurnSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, runtime.NumCPU()} {
		opts.Workers = w
		got, err := ChurnSweep(opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: churn sweep diverges from sequential", w)
		}
	}
}
