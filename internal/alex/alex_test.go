package alex

import (
	"testing"

	"cdfpoison/internal/dataset"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/xrand"
)

func fixture(t testing.TB, n int, seed uint64) keys.Set {
	t.Helper()
	ks, err := dataset.Uniform(xrand.New(seed), n, int64(n)*50)
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

func TestNewValidation(t *testing.T) {
	if _, err := New(keys.Set{}, 0); err == nil {
		t.Fatal("empty set accepted")
	}
	ks := fixture(t, 10, 1)
	if _, err := New(ks, 1); err == nil {
		t.Fatal("leaf target 1 accepted")
	}
	x, err := New(ks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if x.leafTarget != DefaultLeafTarget {
		t.Fatalf("leaf target defaulted to %d", x.leafTarget)
	}
}

func TestInsertRejections(t *testing.T) {
	ks := fixture(t, 100, 2)
	x, err := New(ks, 16)
	if err != nil {
		t.Fatal(err)
	}
	if acc, _ := x.Insert(-5); acc {
		t.Fatal("negative key accepted")
	}
	if acc, _ := x.Insert(ks.At(17)); acc {
		t.Fatal("duplicate accepted")
	}
	if x.Len() != 100 {
		t.Fatalf("Len moved to %d on rejected inserts", x.Len())
	}
}

// TestSearchPredictionOvershoot pins the lowerBound-style out-of-range bug
// class fixed in shard (PR 1) and rmi (PR 5) for this backend at birth: a
// heavily skewed leaf model fed absent keys far outside the stored range
// predicts slots far past either end of the array. The float-space clamp in
// clampSlot must absorb it — no panic, no wrong membership — for the live
// index, its snapshot, and the raw node search alike.
func TestSearchPredictionOvershoot(t *testing.T) {
	// One far outlier drags the leaf's least-squares slope near zero and its
	// router off-scale — the same seed family rmi's regression test uses.
	skewed := append([]int64{}, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 1<<40)
	ks, err := keys.NewStrict(skewed)
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(ks, 4)
	if err != nil {
		t.Fatal(err)
	}
	probes := []int64{0, 1, 9, 20, 1 << 39, 1<<40 - 1, 1<<40 + 1, 1 << 62}
	snap := x.Snapshot()
	for _, k := range probes {
		if r := x.Lookup(k); r.Found {
			t.Fatalf("absent key %d reported found", k)
		}
		if r := snap.Lookup(k); r.Found {
			t.Fatalf("absent key %d reported found via snapshot", k)
		}
	}
	for i := 0; i < ks.Len(); i++ {
		if r := x.Lookup(ks.At(i)); !r.Found {
			t.Fatalf("stored key %d lost under skew", ks.At(i))
		}
	}
	// Raw node-level: a model whose prediction is negative or beyond the
	// array must still clamp and search correctly.
	nd := buildNode([]int64{1 << 30, 1<<30 + 1, 1<<30 + 2})
	nd.model = line{w: 1e12, b: -1e15} // adversarial: wild slope, wild intercept
	for _, k := range []int64{0, 1 << 29, 1 << 30, 1 << 40} {
		pos, pr, win := nd.lowerBound(k)
		if pos < 0 || pos > len(nd.slots) || pr < 1 || win < 1 {
			t.Fatalf("lowerBound(%d) = (%d, %d, %d) out of contract", k, pos, pr, win)
		}
	}
	if !nd.contains(1 << 30) {
		t.Fatal("stored key lost under adversarial model")
	}
	if nd.contains(1<<30 + 3) {
		t.Fatal("absent key found under adversarial model")
	}
}

// TestSplitAndCascadeAccounting drives one leaf past its density threshold
// and the root past its fanout limit, checking the structural counters and
// the RebuildSizer face along the way.
func TestSplitAndCascadeAccounting(t *testing.T) {
	ks := fixture(t, 48, 3)
	x, err := New(ks, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Struct(); got.Splits != 0 || got.Cascades != 0 || got.ShiftWrites != 0 {
		t.Fatalf("fresh index has structural history: %+v", got)
	}
	base := ks.At(ks.Len() / 2)
	sawSplit := false
	for d := int64(1); d <= 600 && x.Struct().Cascades == 0; d++ {
		acc, retrained := x.Insert(base + d)
		if retrained {
			sawSplit = true
			if !acc {
				t.Fatal("retrained without accepting")
			}
			// A split prices its leaf; a cascade prices the whole index.
			if x.LastRebuildSize() < 2 {
				t.Fatalf("LastRebuildSize = %d after a structural event", x.LastRebuildSize())
			}
		}
	}
	st := x.Struct()
	if !sawSplit || st.Splits == 0 {
		t.Fatal("clustered inserts never split")
	}
	if st.Cascades == 0 {
		t.Fatal("fanout overflow never cascaded")
	}
	if st.ShiftWrites == 0 {
		t.Fatal("no shift writes recorded")
	}
	if got, want := st.Cost(), st.ShiftWrites+st.SplitKeys+st.CascadeKeys; got != want {
		t.Fatalf("Cost() = %d, want %d", got, want)
	}
	if x.LastRebuildSize() != x.Len() {
		t.Fatalf("cascade rebuild sized %d, index holds %d", x.LastRebuildSize(), x.Len())
	}
	if x.Stats().Retrains == 0 {
		t.Fatal("structural maintenance did not count as retrains")
	}
}

// TestInsertCostOracle: the pure cost oracle prices exactly what the real
// insert then pays.
func TestInsertCostOracle(t *testing.T) {
	ks := fixture(t, 200, 5)
	x, err := New(ks, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(99)
	for i := 0; i < 300; i++ {
		k := rng.Int63n(ks.Max() + 100)
		j, _ := x.v.route(k)
		if x.v.nodes[j].contains(k) {
			continue
		}
		want := x.InsertCost(j, k)
		before := x.shiftWrites
		if acc, _ := x.Insert(k); !acc {
			t.Fatalf("fresh key %d rejected", k)
		}
		if got := x.shiftWrites - before; got != int64(want) {
			t.Fatalf("InsertCost(%d)=%d but insert paid %d", k, want, got)
		}
	}
}
