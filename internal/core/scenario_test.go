package core

import (
	"context"
	"reflect"
	"testing"

	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
)

func dynamicTwins(t *testing.T, initial keys.Set, d DefenseSpec, cost *index.CostModel, opts ...Option) (*twins[*dynamic.Index], *DefenseReport) {
	t.Helper()
	rep := &DefenseReport{}
	tw, err := newTwins(initial, func(ks keys.Set) (*dynamic.Index, error) {
		return dynamic.New(ks, dynamic.ManualPolicy())
	}, d, rep, cost, newExec(opts))
	if err != nil {
		t.Fatal(err)
	}
	return tw, rep
}

// TestDripSchedule pins the drip rule: before honest op i, poison goes in
// while accepted*n <= i*budget, counting ACCEPTED keys only — so a key the
// victim rejects (here a duplicate) is followed at once by the next — and
// every op, honest or poison, is one tick.
func TestDripSchedule(t *testing.T) {
	initial := mustSet(t, []int64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90})
	tw, _ := dynamicTwins(t, initial, DefenseSpec{}, nil)
	var honestTicks []int
	i := int64(0)
	accepted, err := tw.drip([]int64{5, 10, 15, 25}, 3, 6, func() {
		tw.write(100+i, 0)
		i++
		honestTicks = append(honestTicks, tw.clock)
	})
	if err != nil {
		t.Fatal(err)
	}
	// i=0: 5 in (tick 1), honest (2). i=1: honest (3). i=2: 10 rejected
	// (4), 15 in at once (5), honest (6). i=3: honest (7). i=4: 25 in (8),
	// honest (9). i=5: honest (10).
	if want := []int{2, 3, 6, 7, 9, 10}; !reflect.DeepEqual(honestTicks, want) {
		t.Fatalf("honest ops at ticks %v, want %v", honestTicks, want)
	}
	if accepted != 3 || !reflect.DeepEqual(tw.accepted, []int64{5, 15, 25}) {
		t.Fatalf("accepted %d %v, want 3 [5 15 25]", accepted, tw.accepted)
	}
	if tw.victim.Len() != initial.Len()+3+6 || tw.clean.Len() != initial.Len()+6 {
		t.Fatalf("victim %d / clean %d keys after the drip", tw.victim.Len(), tw.clean.Len())
	}
}

// TestDripLeftovers: poison the schedule does not place (no honest ops)
// lands after the loop, and a cancelled context stops the drip before the
// next honest op.
func TestDripLeftovers(t *testing.T) {
	initial := mustSet(t, []int64{0, 10, 20, 30})
	tw, _ := dynamicTwins(t, initial, DefenseSpec{}, nil)
	if n, err := tw.drip([]int64{1, 2, 3}, 3, 0, func() { t.Fatal("honest op with n = 0") }); err != nil || n != 3 {
		t.Fatalf("drip with no honest ops: %d, %v", n, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tw, _ = dynamicTwins(t, initial, DefenseSpec{}, nil, WithContext(ctx))
	if _, err := tw.drip(nil, 0, 5, func() { t.Fatal("honest op after cancel") }); err == nil {
		t.Fatal("cancelled drip returned nil error")
	}
}

// TestTwinsPipelineTicks: piped twins advance both pipelines with the op
// clock, reads included.
func TestTwinsPipelineTicks(t *testing.T) {
	initial := mustSet(t, []int64{0, 10, 20, 30, 40})
	tw, _ := dynamicTwins(t, initial, DefenseSpec{}, &index.CostModel{Fixed: 5})
	var probes probeAgg
	tw.write(15, 0)
	tw.read(20, &probes)
	tw.inject(25)
	if tw.clock != 3 || tw.vPipe.Now() != 3 || tw.cPipe.Now() != 3 {
		t.Fatalf("clock %d, pipelines at %d/%d, want 3", tw.clock, tw.vPipe.Now(), tw.cPipe.Now())
	}
	if probes.victim == 0 || probes.clean == 0 {
		t.Fatalf("read counted no probes: %+v", probes)
	}
}

// TestTwinsDefenseAccounting: an honest write is one attempt on each side,
// a poison write one attempt on the victim's side only.
func TestTwinsDefenseAccounting(t *testing.T) {
	initial := mustSet(t, []int64{0, 10, 20, 30, 40})
	tw, rep := dynamicTwins(t, initial, DefenseSpec{RateBudget: 1, RateWindow: 100, Sources: 2}, nil)
	tw.write(15, 0)
	tw.write(16, 0) // source 0 is over budget on both sides
	tw.inject(25)
	want := DefenseReport{Enabled: true, HonestAttempts: 2, PoisonAttempts: 1,
		ThrottledHonest: 1, CleanAttempts: 2, CleanThrottled: 1}
	if *rep != want {
		t.Fatalf("report %+v, want %+v", *rep, want)
	}
	if tw.atkSrc != 2 || !reflect.DeepEqual(tw.accepted, []int64{25}) {
		t.Fatalf("attacker source %d, accepted %v", tw.atkSrc, tw.accepted)
	}
}

// TestDamageHeadlines: each scenario's Damage is the column DESIGN.md §13
// names.
func TestDamageHeadlines(t *testing.T) {
	initial := serveFixture(t, 300)
	st, err := StaticAttack(initial, staticTestOpts(initial))
	if err != nil {
		t.Fatal(err)
	}
	on, err := OnlinePoisonAttack(initial, OnlineOptions{Epochs: 2, EpochBudget: 6})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := ServeAttack(initial, serveOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := ChurnAttack(initial, churnOpts())
	if err != nil {
		t.Fatal(err)
	}
	ca, err := CascadeAttack(initial, cascadeOpts())
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct{ got, want float64 }{
		"static":  {st.Damage(), st.RatioLoss},
		"online":  {on.Damage(), on.Epochs[len(on.Epochs)-1].RatioLoss},
		"serve":   {sv.Damage(), sv.Epochs[len(sv.Epochs)-1].RatioLoss},
		"churn":   {ch.Damage(), float64(ch.VictimChurn.RebuildTicks) / float64(ch.CleanChurn.RebuildTicks)},
		"cascade": {ca.Damage(), ca.Epochs[len(ca.Epochs)-1].StructRatio},
	} {
		if c.got != c.want || c.got <= 1 {
			t.Errorf("%s: Damage %v, want %v (> 1)", name, c.got, c.want)
		}
	}
}

// TestFinalAndPeak pins the trajectory helpers' empty-input conventions.
func TestFinalAndPeak(t *testing.T) {
	id := func(x float64) float64 { return x }
	if final([]float64(nil), id) != 1 || final([]float64{3, 2}, id) != 2 {
		t.Fatal("final")
	}
	if peak([]float64(nil), 1, id) != 1 || peak([]float64{0.5, 3, 2}, 0, id) != 3 || peak([]float64{0.5}, 1, id) != 1 {
		t.Fatal("peak")
	}
}
