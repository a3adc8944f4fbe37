package defense

// The guard's mirrored content is incremental state: it is built once from
// backend.Keys() and then kept in step by inserting each accepted key. The
// tests here pin it equal to the from-scratch rebuild, NewContent(
// backend.Keys()), after every operation of random op streams over every
// substrate, and bound what the mirror costs an accepted insert.

import (
	"context"
	"testing"

	"cdfpoison/internal/alex"
	"cdfpoison/internal/btree"
	"cdfpoison/internal/dataset"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/engine"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/rmi"
	"cdfpoison/internal/shard"
	"cdfpoison/internal/xrand"
)

// contentBackends are the substrates a guard is differentially checked
// over; the retrain policies differ so that inserts also retrain inline.
var contentBackends = []struct {
	name  string
	build func(keys.Set) (index.Backend, error)
}{
	{"dynamic", func(ks keys.Set) (index.Backend, error) { return dynamic.New(ks, dynamic.EveryKInserts(7)) }},
	{"rmi-single", func(ks keys.Set) (index.Backend, error) { return rmi.NewSingle(ks) }},
	{"btree", func(ks keys.Set) (index.Backend, error) { return btree.Bulk(8, ks.Keys()) }},
	{"shard-4", func(ks keys.Set) (index.Backend, error) { return shard.New(ks, 4, dynamic.BufferLimit(5)) }},
	{"alex", func(ks keys.Set) (index.Backend, error) { return alex.New(ks, 16) }},
}

// builtinPolicies is every built-in detector, each probed on its own.
var builtinPolicies = []Policy{
	DensityPolicy{Window: 8, Ratio: 4},
	DensityPolicy{Window: 4, Ratio: 2},
	DupMassPolicy{Window: 3, Count: 3},
	GapOutlierPolicy{Ratio: 8},
	LossSpikePolicy{Ratio: 1.5},
	LossSpikePolicy{Ratio: 1.01},
}

// contentChains are the guard chains the op streams run under: the full
// built-in chain (many rejects), a loose chain (mostly accepts) and the
// empty chain (every key reaches the backend).
var contentChains = [][]Policy{
	builtinPolicies,
	{DupMassPolicy{Window: 1, Count: 2}, LossSpikePolicy{Ratio: 4}},
	{},
}

const (
	contentN      = 120
	contentDomain = 12_000
)

// guardOp is one decoded operation of a content op stream.
type guardOp struct {
	kind byte // see guardContentRun
	v    uint16
}

func decodeGuardOps(raw []byte) []guardOp {
	ops := make([]guardOp, 0, len(raw)/3)
	for i := 0; i+2 < len(raw); i += 3 {
		ops = append(ops, guardOp{kind: raw[i], v: uint16(raw[i+1])<<8 | uint16(raw[i+2])})
	}
	return ops
}

// guardContentRun drives ops through a guard over backend bi with chain ci
// and, after every op, checks the guard against a from-scratch rebuild of
// its content. Op kinds (mod 8): 0–2 a fresh key anywhere in twice the
// domain, 3 a stored key (a duplicate), 4 a stored key's neighbour, 5 a
// negative key, 6 Retrain, 7 RetrainParallel.
func guardContentRun(t *testing.T, bi, ci int, ops []guardOp) {
	t.Helper()
	ks, err := dataset.Uniform(xrand.New(uint64(bi*7+ci)+1), contentN, contentDomain)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := contentBackends[bi].build(ks)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGuard(inner, GuardOptions{Policies: contentChains[ci]})
	pool := engine.New(2)
	wantFlagged, screened := 0, false
	for step, op := range ops {
		var k int64
		switch op.kind % 8 {
		case 0, 1, 2:
			k = int64(op.v) * (2 * contentDomain) / 65536
		case 3, 4:
			stored := inner.Keys()
			k = stored.At(int(op.v) % stored.Len())
			if op.kind%8 == 4 {
				k += int64(op.v%3) - 1
			}
		case 5:
			k = -1 - int64(op.v)
		case 6:
			g.Retrain()
		case 7:
			if err := g.RetrainParallel(context.Background(), pool); err != nil {
				t.Fatal(err)
			}
		}
		if op.kind%8 < 6 {
			ref := NewContent(inner.Keys())
			flag := false
			if k >= 0 {
				for _, p := range g.policies {
					flag = flag || p.Suspicious(ref, k)
				}
			}
			if flag {
				wantFlagged++
			}
			screened = screened || k >= 0
			accepted, _ := g.Insert(k)
			if accepted && (flag || k < 0 || ref.Keys.Contains(k)) {
				t.Fatalf("step %d: key %d accepted (flagged %v, stored %v)", step, k, flag, ref.Keys.Contains(k))
			}
		}
		checkGuardContent(t, step, g, k, screened)
		if g.Flagged() != wantFlagged {
			t.Fatalf("step %d: Flagged = %d, rebuild reference %d", step, g.Flagged(), wantFlagged)
		}
	}
}

// checkGuardContent compares the guard's cached content with
// NewContent(backend.Keys()): the keys, each built-in policy's verdict on
// probes around k and across the key range, and the loss oracle. Once an
// insert has been screened the mirror must exist: it is built on first use
// and dropped only by the rebuild fallback, which must never fire here.
func checkGuardContent(t *testing.T, step int, g *Guard, k int64, screened bool) {
	t.Helper()
	ref := NewContent(g.backend.Keys())
	if g.mirror == nil {
		if !screened {
			return
		}
		t.Fatalf("step %d: no mirrored content after a screened insert", step)
	}
	if !g.content.Keys.Equal(ref.Keys) {
		t.Fatalf("step %d: cached content %v != rebuild %v", step, g.content.Keys, ref.Keys)
	}
	probes := []int64{k - 1, k, k + 1, 0, contentDomain / 2, 2 * contentDomain}
	if n := ref.Keys.Len(); n > 0 {
		for _, i := range []int{0, n / 3, n / 2, n - 1} {
			s := ref.Keys.At(i)
			probes = append(probes, s-2, s-1, s, s+1, s+2)
		}
	}
	for _, p := range builtinPolicies {
		for _, q := range probes {
			if q < 0 {
				continue
			}
			if got, want := p.Suspicious(&g.content, q), p.Suspicious(ref, q); got != want {
				t.Fatalf("step %d: %s on %d: cached verdict %v, rebuild %v", step, p.Name(), q, got, want)
			}
		}
	}
	got, want := g.content.LossOracle(), ref.LossOracle()
	if (got == nil) != (want == nil) || got != nil && got.CleanLoss() != want.CleanLoss() {
		t.Fatalf("step %d: cached loss oracle diverged from rebuild", step)
	}
}

// TestGuardContentMatchesRebuild runs random op streams — fresh keys,
// duplicates, neighbours, negative keys, Retrain and RetrainParallel —
// through a guard over every substrate and chain, checking the mirrored
// content against the from-scratch rebuild after every op.
func TestGuardContentMatchesRebuild(t *testing.T) {
	for bi, b := range contentBackends {
		for ci := range contentChains {
			t.Run(b.name+"/"+ChainSpec(contentChains[ci]), func(t *testing.T) {
				rng := xrand.New(uint64(100*bi + ci))
				raw := make([]byte, 3*300)
				for i := range raw {
					raw[i] = byte(rng.Intn(256))
				}
				guardContentRun(t, bi, ci, decodeGuardOps(raw))
			})
		}
	}
}

// FuzzGuardContent is the fuzzed form of TestGuardContentMatchesRebuild:
// the backend, the chain and the op stream all come from the input. The
// checked-in corpus is replayed in CI.
func FuzzGuardContent(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0, 0x80, 0, 3, 0, 5, 4, 0, 5, 6, 0, 0, 1, 0x40, 0})
	f.Add(uint8(3), uint8(2), []byte{5, 0, 1, 0, 0xff, 0xff, 7, 0, 0, 2, 0x12, 0x34})
	f.Fuzz(func(t *testing.T, backend, chain uint8, raw []byte) {
		if len(raw) > 3*200 {
			raw = raw[:3*200]
		}
		guardContentRun(t, int(backend)%len(contentBackends), int(chain)%len(contentChains), decodeGuardOps(raw))
	})
}

// TestGuardInsertAllocBudget: an accepted guarded insert into dynamic costs
// less than one allocation on top of the bare backend's, amortized over
// 1,000 inserts — the mirror grows by an in-place memmove, not by copying
// the key set.
func TestGuardInsertAllocBudget(t *testing.T) {
	const inserts = 1000
	base := make([]int64, 2*inserts)
	for i := range base {
		base[i] = int64(i+1) * 1000
	}
	ks := keys.FromSorted(base)
	measure := func(guarded bool) float64 {
		d, err := dynamic.New(ks, dynamic.ManualPolicy())
		if err != nil {
			t.Fatal(err)
		}
		var b index.Backend = d
		if guarded {
			g := NewGuard(d, GuardOptions{})
			g.suspicious(0) // build the mirror outside the measurement
			b = g
		}
		// AllocsPerRun calls the function once to warm up and then once
		// more; each call fills a fresh offset in every other gap.
		call := 0
		allocs := testing.AllocsPerRun(1, func() {
			off := int64(500 - 250*call)
			call++
			for i := 0; i < inserts; i++ {
				k := int64(2*i+1)*1000 + off
				if ok, _ := b.Insert(k); !ok {
					t.Fatalf("guarded=%v: key %d rejected", guarded, k)
				}
			}
		})
		return allocs / inserts
	}
	bare, guarded := measure(false), measure(true)
	if guarded-bare >= 1 {
		t.Fatalf("guarded insert costs %.3f allocs/op, bare %.3f: the guard adds %.3f (budget < 1)", guarded, bare, guarded-bare)
	}
	t.Logf("allocs/op: bare %.3f, guarded %.3f", bare, guarded)
}
