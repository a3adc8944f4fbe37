package defense

// BenchmarkGuardProbeSum pins the batch-forwarding contract of
// Guard.ProbeSum: the guard hands the WHOLE query batch to the wrapped
// backend's batch path in one call, instead of looping single Lookups
// through two interface layers (the reference index.ProbeSum shape). The
// totals are identical either way — integer probe sums are
// partition-invariant — so the only difference is dispatch overhead on the
// serving scenarios' hottest evaluation path; this benchmark records the
// delta so a regression back to the per-key loop is visible.

import (
	"testing"

	"cdfpoison/internal/dataset"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/shard"
	"cdfpoison/internal/xrand"
)

func guardOver(b *testing.B, backend index.Backend) (*Guard, []int64) {
	b.Helper()
	g := NewGuard(backend, GuardOptions{})
	return g, backend.Keys().Keys()
}

func benchProbeSum(b *testing.B, build func(b *testing.B) index.Backend) {
	b.Run("forwarded", func(b *testing.B) {
		g, queries := guardOver(b, build(b))
		var sink int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, _ := g.ProbeSum(queries)
			sink += p
		}
		_ = sink
	})
	b.Run("per-key-loop", func(b *testing.B) {
		g, queries := guardOver(b, build(b))
		var sink int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The shape Guard.ProbeSum would degenerate to without the
			// batch forward: one interface dispatch per key, through the
			// guard AND the backend.
			p, _ := index.ProbeSum(g, queries)
			sink += p
		}
		_ = sink
	})
}

func BenchmarkGuardProbeSum(b *testing.B) {
	ks, err := dataset.Uniform(xrand.New(3), 20_000, 800_000)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dynamic", func(b *testing.B) {
		benchProbeSum(b, func(b *testing.B) index.Backend {
			d, err := dynamic.New(ks, dynamic.ManualPolicy())
			if err != nil {
				b.Fatal(err)
			}
			return d
		})
	})
	b.Run("shard-8", func(b *testing.B) {
		benchProbeSum(b, func(b *testing.B) index.Backend {
			s, err := shard.New(ks, 8, dynamic.ManualPolicy())
			if err != nil {
				b.Fatal(err)
			}
			return s
		})
	})
}

// BenchmarkGuardInsert prices an accepted insert through the guard against
// the bare backend. The guard screens each key against its mirrored
// content and then inserts it into the mirror, so the difference is the
// policy chain plus one memmove — no re-read of backend.Keys(). Each round
// inserts 1,000 mid-gap keys into a fresh 20,000-key index; the rebuild
// between rounds is untimed.
func BenchmarkGuardInsert(b *testing.B) {
	const base, round = 20_000, 1000
	raw := make([]int64, base)
	for i := range raw {
		raw[i] = int64(i+1) * 1000
	}
	ks := keys.FromSorted(raw)
	for _, guarded := range []bool{false, true} {
		name := "bare"
		if guarded {
			name = "guarded"
		}
		b.Run("dynamic/"+name, func(b *testing.B) {
			b.ReportAllocs()
			var x index.Backend
			for i := 0; i < b.N; i++ {
				if i%round == 0 {
					b.StopTimer()
					d, err := dynamic.New(ks, dynamic.ManualPolicy())
					if err != nil {
						b.Fatal(err)
					}
					x = d
					if guarded {
						g := NewGuard(d, GuardOptions{})
						g.suspicious(0) // build the mirror outside the timing
						x = g
					}
					b.StartTimer()
				}
				k := int64(i%round)*(base/round)*1000 + 500
				if ok, _ := x.Insert(k); !ok {
					b.Fatalf("key %d rejected", k)
				}
			}
		})
	}
}
