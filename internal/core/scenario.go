package core

// The scenario engine (DESIGN.md §13). Every attack scenario in this
// package runs the paper's experiment: poison an index trained on the CDF,
// retrain, and compare it with a clean twin that absorbs the same honest
// traffic. twins owns that experiment's shared machinery — the victim and
// clean-twin construction, the defense arms on both write paths, the
// optional retrain pipelines, the one logical op clock, the poison drip,
// and the accepted-poison ledger — so each scenario file keeps only its
// own oracle and measurement columns.

import (
	"fmt"

	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/workload"
)

// twins is one scenario's victim and clean counterfactual. T is the
// concrete substrate the scenario inspects directly (shard table, leaf
// table); every write, read, retrain and stats call goes through the
// outermost faces v and c instead.
type twins[T index.Backend] struct {
	victim, clean T
	// v and c are the outermost faces: the retrain pipeline when the
	// scenario runs behind one, else the guard when a policy chain is
	// armed, else the substrate itself.
	v, c index.Backend
	// vPipe and cPipe are the retrain pipelines; nil unless piped.
	vPipe, cPipe *index.Pipeline
	vArm, cArm   *defenseArm
	atkSrc       int
	// clock is the scenario's logical op clock: one tick per honest or
	// poison op, read or write. Pipelines tick with it, and the rate
	// limiter reads it.
	clock int
	// accepted is every poison key the victim accepted, in order.
	accepted []int64
	ex       exec
}

// newTwins builds victim and clean twin from one constructor, mounts the
// defense spec's guard and arm on both, and — when cost is non-nil — puts
// both behind a retrain pipeline priced by *cost. rep receives the defense
// accounting of both sides.
func newTwins[T index.Backend](initial keys.Set, build func(keys.Set) (T, error), d DefenseSpec, rep *DefenseReport, cost *index.CostModel, ex exec) (*twins[T], error) {
	victim, err := build(initial)
	if err != nil {
		return nil, err
	}
	clean, err := build(initial)
	if err != nil {
		return nil, err
	}
	t := &twins[T]{victim: victim, clean: clean, atkSrc: d.attackerSource(), ex: ex}
	vFace, vGuard := d.wrap(victim)
	cFace, cGuard := d.wrap(clean)
	t.v, t.c = vFace, cFace
	if cost != nil {
		t.vPipe = index.NewPipeline(t.v, *cost).WithPool(ex.ctx, ex.pool)
		t.cPipe = index.NewPipeline(t.c, *cost).WithPool(ex.ctx, ex.pool)
		t.v, t.c = t.vPipe, t.cPipe
	}
	rep.Enabled = d.Enabled()
	t.vArm = d.newArm(t.v, vGuard, rep, false)
	t.cArm = d.newArm(t.c, cGuard, rep, true)
	return t, nil
}

// step advances the op clock, and both pipelines with it, by one tick.
func (t *twins[T]) step() {
	t.clock++
	if t.vPipe != nil {
		t.vPipe.Tick(1)
		t.cPipe.Tick(1)
	}
}

// write is one honest write: one tick, then the clean twin takes the key
// before the victim does.
func (t *twins[T]) write(k int64, src int) (cleanOK, victimOK bool) {
	t.step()
	cleanOK, _ = t.cArm.insert(k, src, t.clock, false)
	victimOK, _ = t.vArm.insert(k, src, t.clock, false)
	return cleanOK, victimOK
}

// read is one honest read served by both sides (from the published read
// plane when piped), its probes added to agg.
func (t *twins[T]) read(k int64, agg *probeAgg) {
	t.step()
	agg.victim += int64(t.v.Lookup(k).Probes)
	agg.clean += int64(t.c.Lookup(k).Probes)
}

// inject is one poison write, victim only, from the attacker's source.
func (t *twins[T]) inject(k int64) bool {
	t.step()
	ok, _ := t.vArm.insert(k, t.atkSrc, t.clock, true)
	if ok {
		t.accepted = append(t.accepted, k)
	}
	return ok
}

// injectAll injects the keys in order and returns how many were accepted.
func (t *twins[T]) injectAll(poison []int64) int {
	n := 0
	for _, k := range poison {
		if t.inject(k) {
			n++
		}
	}
	return n
}

// drip spreads poison evenly through n honest ops: before honest op i it
// injects while accepted*n <= i*budget, where accepted counts this drip's
// ACCEPTED keys — so a rejected key is followed at once by the next one.
// Each honest op is one honest() call, after a cancellation check; whatever
// poison remains lands after the last op. It returns the accepted count.
func (t *twins[T]) drip(poison []int64, budget, n int, honest func()) (int, error) {
	accepted := 0
	for i := 0; i < n; i++ {
		for len(poison) > 0 && accepted*n <= i*budget {
			if t.inject(poison[0]) {
				accepted++
			}
			poison = poison[1:]
		}
		if err := t.ex.ctx.Err(); err != nil {
			return accepted, err
		}
		honest()
	}
	return accepted + t.injectAll(poison), nil
}

// retrain force-retrains the victim, then the clean twin.
func (t *twins[T]) retrain() {
	t.v.Retrain()
	t.c.Retrain()
}

// measure evaluates one sorted batch against both sides — the published
// read-plane snapshots when piped — through the sorted-batch kernel.
func (t *twins[T]) measure(pe *probeEval, grainFloor int, sorted []int64) (probeAgg, error) {
	var v, c index.PointReader = t.v, t.c
	if t.vPipe != nil {
		v, c = t.vPipe.Snapshot(), t.cPipe.Snapshot()
	}
	return pe.measurePair(t.ex, grainFloor, sorted, c, v)
}

// poison returns the accepted poison as a strict key set.
func (t *twins[T]) poison(scenario string) (keys.Set, error) {
	ps, err := keys.NewStrict(t.accepted)
	if err != nil {
		return keys.Set{}, fmt.Errorf("core: %s poison keys collide: %w", scenario, err)
	}
	return ps, nil
}

// honestStream is the honest workload both sides see: a pure function of
// (spec, initial, domain, seed), its ops attributed round-robin to the
// defense spec's sources.
func honestStream(spec workload.Spec, initial keys.Set, domain int64, seed uint64, d DefenseSpec) (*workload.Generator, error) {
	gen, err := workload.NewGenerator(spec, initial, defaultDomain(domain, initial), seed)
	if err != nil {
		return nil, err
	}
	gen.SetSources(d.Sources)
	return gen, nil
}

// defaultDomain is the write-key universe: domain when set, else twice the
// initial key span.
func defaultDomain(domain int64, initial keys.Set) int64 {
	if domain > 0 {
		return domain
	}
	return 2 * (initial.Max() + 1)
}

// validateEpochs checks the epoch-loop parameters the serving scenarios
// share.
func validateEpochs(scenario string, epochs, opsPerEpoch, budget int) error {
	if epochs < 1 {
		return fmt.Errorf("core: %s scenario needs Epochs >= 1, got %d", scenario, epochs)
	}
	if opsPerEpoch < 0 {
		return fmt.Errorf("core: negative ops per epoch %d", opsPerEpoch)
	}
	if budget < 0 {
		return fmt.Errorf("core: negative per-epoch budget %d", budget)
	}
	return nil
}

// lossCols returns the clean loss, poisoned loss and their ratio from the
// two sides' stats.
func lossCols(victim, clean index.Stats) (cleanLoss, poisonedLoss, ratio float64) {
	return clean.ContentLoss, victim.ContentLoss, SafeRatio(victim.ContentLoss, clean.ContentLoss)
}

// probeCols turns exact probe totals over n lookups into per-lookup means
// and the victim/clean ratio; all zero when n == 0.
func probeCols(total probeAgg, n int) (clean, victim, ratio float64) {
	if n == 0 {
		return 0, 0, 0
	}
	clean = float64(total.clean) / float64(n)
	victim = float64(total.victim) / float64(n)
	return clean, victim, SafeRatio(victim, clean)
}

// final returns f of the last epoch, or 1 for an empty trajectory.
func final[E any](epochs []E, f func(E) float64) float64 {
	if len(epochs) == 0 {
		return 1
	}
	return f(epochs[len(epochs)-1])
}

// peak returns the largest f over xs, never below floor.
func peak[E any](xs []E, floor float64, f func(E) float64) float64 {
	best := floor
	for _, x := range xs {
		if v := f(x); v > best {
			best = v
		}
	}
	return best
}
