package shard

import (
	"testing"

	"cdfpoison/internal/dataset"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/xrand"
)

func fixture(t testing.TB, n int) keys.Set {
	t.Helper()
	ks, err := dataset.Uniform(xrand.New(5), n, int64(n)*40)
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

func TestNewValidation(t *testing.T) {
	ks := fixture(t, 20)
	if _, err := New(ks, 0, dynamic.ManualPolicy()); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := New(ks, 11, dynamic.ManualPolicy()); err == nil {
		t.Fatal("20 keys across 11 shards accepted (needs 2 per shard)")
	}
	if _, err := New(ks, 4, dynamic.EveryKInserts(0)); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

// TestRouterInvariants: the router covers the key space with disjoint
// contiguous ranges, every initial key lands in a live shard, every shard
// got at least two keys, and routing is consistent between partition (used
// at construction) and route (used forever after).
func TestRouterInvariants(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7, 16} {
		ks := fixture(t, 800)
		x, err := New(ks, n, dynamic.ManualPolicy())
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		if x.NumShards() != n {
			t.Fatalf("shards=%d: got %d", n, x.NumShards())
		}
		if len(x.Cuts()) != n-1 {
			t.Fatalf("shards=%d: %d cuts", n, len(x.Cuts()))
		}
		for i := 1; i < len(x.Cuts()); i++ {
			if x.Cuts()[i-1] >= x.Cuts()[i] {
				t.Fatalf("shards=%d: cuts not strictly increasing: %v", n, x.Cuts())
			}
		}
		total := 0
		for i := 0; i < n; i++ {
			s := x.Shard(i)
			if s.Len() < 2 {
				t.Fatalf("shards=%d: shard %d holds %d keys", n, i, s.Len())
			}
			total += s.Len()
			// Every key stored in shard i must route back to shard i.
			sk := s.Keys()
			for j := 0; j < sk.Len(); j++ {
				if got, _ := x.route(sk.At(j)); got != i {
					t.Fatalf("shards=%d: key %d stored in shard %d routes to %d",
						n, sk.At(j), i, got)
				}
			}
		}
		if total != ks.Len() {
			t.Fatalf("shards=%d: %d keys partitioned, want %d", n, total, ks.Len())
		}
		if !x.Keys().Equal(ks) {
			t.Fatalf("shards=%d: Keys() does not reassemble the initial set", n)
		}
	}
}

// TestSingleShardMatchesDynamic is the serving layer's ground truth: with
// one shard the router has no cuts and adds no probes, so every Lookup,
// Insert, Stats, and ProbeSum result is identical to a plain dynamic index
// driven with the same operations.
func TestSingleShardMatchesDynamic(t *testing.T) {
	ks := fixture(t, 400)
	policy := dynamic.BufferLimit(32)
	x, err := New(ks, 1, policy)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dynamic.New(ks, policy)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(77)
	for op := 0; op < 2_000; op++ {
		k := rng.Int63n(int64(ks.Len()) * 40)
		switch rng.Intn(3) {
		case 0:
			sa, sr := x.Insert(k)
			da, dr := d.Insert(k)
			if sa != da || sr != dr {
				t.Fatalf("op %d: Insert(%d) diverged: shard (%v,%v) vs dynamic (%v,%v)",
					op, k, sa, sr, da, dr)
			}
		case 1:
			if sr, dr := x.Lookup(k), d.Lookup(k); sr != dr {
				t.Fatalf("op %d: Lookup(%d) diverged: %+v vs %+v", op, k, sr, dr)
			}
		default:
			if ss, ds := x.Stats(), d.Stats(); ss != ds {
				t.Fatalf("op %d: Stats diverged: %+v vs %+v", op, ss, ds)
			}
		}
	}
	x.Retrain()
	d.Retrain()
	queries := ks.Keys()
	sp, sm := x.ProbeSum(queries)
	dp, dm := d.ProbeSum(queries)
	if sp != dp || sm != dm {
		t.Fatalf("ProbeSum diverged after retrain: (%d,%d) vs (%d,%d)", sp, sm, dp, dm)
	}
}

// TestShardingIsolatesDamage: flooding one shard's range leaves the other
// shards' models untouched and shows up as imbalance.
func TestShardingIsolatesDamage(t *testing.T) {
	ks := fixture(t, 600)
	x, err := New(ks, 4, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Imbalance(); got > 1.2 {
		t.Fatalf("initial imbalance %v — router should split near-evenly", got)
	}
	before := x.ShardStats()
	// Flood the first shard's range with fresh keys.
	cut := x.Cuts()[0]
	accepted := 0
	for k := ks.Min() + 1; k < cut && accepted < 200; k++ {
		if ok, _ := x.Insert(k); ok {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("flood inserted nothing")
	}
	after := x.ShardStats()
	if after[0].Buffered != accepted {
		t.Fatalf("shard 0 buffered %d, want %d", after[0].Buffered, accepted)
	}
	for i := 1; i < 4; i++ {
		if after[i] != before[i] {
			t.Fatalf("shard %d changed by a flood outside its range: %+v vs %+v",
				i, after[i], before[i])
		}
	}
	if x.Imbalance() <= 1.2 {
		t.Fatalf("imbalance %v did not register a %d-key flood", x.Imbalance(), accepted)
	}
}

// TestSkewedDataFallsBackToQuantiles: heavily clustered keys defeat the
// fitted-line cuts; construction must still succeed with every shard
// populated (the empirical-quantile fallback).
func TestSkewedDataFallsBackToQuantiles(t *testing.T) {
	// 200 keys clustered at the bottom, 4 far outliers: one line cannot
	// split this into 8 populated ranges.
	raw := make([]int64, 0, 204)
	for i := int64(0); i < 200; i++ {
		raw = append(raw, i)
	}
	raw = append(raw, 1<<40, 1<<41, 1<<42, 1<<43)
	ks, err := keys.NewStrict(raw)
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(ks, 8, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if x.Shard(i).Len() < 2 {
			t.Fatalf("shard %d under-populated on skewed data", i)
		}
	}
	if !x.Keys().Equal(ks) {
		t.Fatal("skewed partition lost keys")
	}
}
