package bench

import (
	"context"
	"fmt"
	"strings"

	"cdfpoison/internal/core"
	"cdfpoison/internal/defense"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/engine"
	"cdfpoison/internal/index"
	"cdfpoison/internal/workload"
)

// DefenseCell is one (scenario × defense strength) cell of the Pareto sweep:
// the scenario's headline victim/clean damage ratio under that defense, its
// reduction relative to the undefended run, and the honest-traffic price the
// defense charged for it (measured on the clean twin, which runs the
// identical defense over a pure-honest stream).
type DefenseCell struct {
	// Scenario is one of "static", "online", "serve", "churn", "cascade".
	Scenario string
	// Strength labels the defense tier: "off", "mid", "full". "off" is the
	// zero DefenseSpec — byte-identical to the undefended scenario, which
	// the golden tests pin.
	Strength string
	// Spec is the human-readable defense configuration ("none" when off).
	Spec string
	// Damage is the scenario's headline victim/clean ratio under this
	// defense: content-loss ratio (static/online/serve), rebuild-tick ratio
	// (churn), structural-cost ratio (cascade).
	Damage float64
	// Excess is max(Damage-1, 0): the part of the ratio the attacker
	// actually caused — a clean run sits at exactly 1.
	Excess float64
	// Reduction is excess(off)/excess(this cell): ≥ 2 means the defense
	// halved the attacker's damage. 1 by definition for the off cell.
	Reduction float64
	// Report is the full defense-plane accounting. Its HonestBlockedFrac
	// is the cell's overhead — the false-positive price — and its
	// PoisonBlockedFrac the share of attacker writes the defense stopped.
	Report core.DefenseReport
	// Frontier marks cells on the scenario's Pareto frontier: no other cell
	// of the same scenario has both no-worse overhead and strictly better
	// reduction (or equal reduction at strictly lower overhead).
	Frontier bool
}

// DefenseSweepResult is the attack-vs-defense Pareto sweep ("-fig defense"
// in lisbench): all five attack scenarios, each at three defense strengths,
// over shared per-scenario key sets and streams so that within a scenario
// the defense is the ONLY variable.
type DefenseSweepResult struct {
	Cells []DefenseCell
}

// defenseConfig is one defense tier of a scenario.
type defenseConfig struct {
	strength string
	spec     core.DefenseSpec
}

// defenseScenario couples a scenario's name and defense roster with a
// closure running it at one spec. Closures capture the scenario's key set
// and fixed options, so every tier sees identical streams.
type defenseScenario struct {
	name    string
	configs []defenseConfig
	run     func(spec core.DefenseSpec) (damage float64, rep core.DefenseReport, err error)
}

// damageOf reads a defense cell's inputs off a scenario result: its
// headline damage (the result's Damage) and its defense report.
func damageOf[R interface{ Damage() float64 }](res R, rep core.DefenseReport, err error) (float64, core.DefenseReport, error) {
	if err != nil {
		return 0, core.DefenseReport{}, err
	}
	return res.Damage(), rep, nil
}

// defenseDims sizes the five scenarios per scale. Budgets and op counts
// track the corresponding single-scenario sweeps (serveShape, churnShape,
// cascadeShape) at each scale; the static scenario keeps its honest writes
// inside the initial key range, because out-of-range writes stretch both
// twins' CDFs and drown the attack signal in shared honest loss.
type defenseDims struct {
	staticN, staticBudget, staticHonest    int
	onlineN, onlineEpochs, onlineBudget    int
	onlineArrivals                         int
	serveN, serveEpochs, serveOps          int
	serveBudget, serveShards               int
	churnN, churnEpochs, churnOps          int
	churnBudget, churnShards, churnBufferK int
	cascadeN, cascadeEpochs, cascadeOps    int
	cascadeBudget, cascadeLeaf             int
}

func defenseShape(s Scale) defenseDims {
	switch s {
	case ScaleQuick:
		return defenseDims{
			staticN: 300, staticBudget: 30, staticHonest: 120,
			onlineN: 300, onlineEpochs: 3, onlineBudget: 15, onlineArrivals: 6,
			serveN: 400, serveEpochs: 3, serveOps: 60, serveBudget: 20, serveShards: 4,
			churnN: 400, churnEpochs: 3, churnOps: 80, churnBudget: 24, churnShards: 4, churnBufferK: 8,
			cascadeN: 200, cascadeEpochs: 4, cascadeOps: 120, cascadeBudget: 30, cascadeLeaf: 16,
		}
	case ScaleLarge:
		return defenseDims{
			staticN: 10_000, staticBudget: 1_000, staticHonest: 4_000,
			onlineN: 10_000, onlineEpochs: 8, onlineBudget: 500, onlineArrivals: 200,
			serveN: 20_000, serveEpochs: 8, serveOps: 2_000, serveBudget: 400, serveShards: 16,
			churnN: 20_000, churnEpochs: 8, churnOps: 2_000, churnBudget: 400, churnShards: 16, churnBufferK: 256,
			cascadeN: 5_000, cascadeEpochs: 8, cascadeOps: 2_000, cascadeBudget: 500, cascadeLeaf: 32,
		}
	default:
		return defenseDims{
			staticN: 2_000, staticBudget: 200, staticHonest: 800,
			onlineN: 2_000, onlineEpochs: 6, onlineBudget: 100, onlineArrivals: 40,
			serveN: 4_000, serveEpochs: 6, serveOps: 400, serveBudget: 80, serveShards: 8,
			churnN: 4_000, churnEpochs: 6, churnOps: 400, churnBudget: 80, churnShards: 8, churnBufferK: 64,
			cascadeN: 1_000, cascadeEpochs: 6, cascadeOps: 400, cascadeBudget: 100, cascadeLeaf: 16,
		}
	}
}

// defenseChain parses a policy-chain spec that is a compile-time constant of
// this package; a parse failure is a programming error.
func defenseChain(spec string) []defense.Policy {
	ps, err := defense.ParsePolicyChain(spec)
	if err != nil {
		panic(fmt.Sprintf("bench: bad built-in defense chain %q: %v", spec, err))
	}
	return ps
}

// SpecLabel renders a DefenseSpec for CSV and log output; "none" for the
// zero spec.
func SpecLabel(d core.DefenseSpec) string {
	if !d.Enabled() {
		return "none"
	}
	var parts []string
	if len(d.Policies) > 0 {
		parts = append(parts, defense.ChainSpec(d.Policies))
	}
	if d.Fitter != nil {
		parts = append(parts, "fit="+d.Fitter.Name())
	}
	if d.RateBudget >= 1 && d.RateWindow >= 1 {
		parts = append(parts, fmt.Sprintf("rate=%d/%d", d.RateBudget, d.RateWindow))
	}
	if d.Sources > 1 {
		parts = append(parts, fmt.Sprintf("sources=%d", d.Sources))
	}
	if d.BalancedSplit {
		parts = append(parts, "balanced-split")
	}
	return strings.Join(parts, "+")
}

// DefenseSweep runs every attack scenario at three defense strengths and
// reports the Pareto trade-off between attack-damage reduction and
// honest-traffic overhead. Per scenario, the key set and operation streams
// are FIXED across tiers — the defense is the only variable — and the "off"
// tier is the zero DefenseSpec, byte-identical to the undefended scenario
// (TestDefenseSweepZeroStrengthGolden). Cells fan out across
// Options.Workers with sequential inner attacks; the Pareto pass folds in
// deterministic cell order, so results are identical for every worker
// count.
func DefenseSweep(opts Options) (DefenseSweepResult, error) {
	opts = opts.fill()
	dims := defenseShape(opts.Scale)
	root := opts.rng()

	// The screening chain the greedy oracles cannot dodge: Algorithm 1 and
	// the per-epoch regression oracle both pile poison into dense clusters,
	// which the density and dup-mass screens price up.
	const screenChain = "density:8:3|dupmass:3:3"

	var scenarios []defenseScenario

	// --- static: one-shot Algorithm 1 drip through the write path ---
	staticKS, err := DistUniform.generate(root.Split(), dims.staticN, int64(dims.staticN)*40)
	if err != nil {
		return DefenseSweepResult{}, fmt.Errorf("bench: defense static set: %w", err)
	}
	scenarios = append(scenarios, defenseScenario{
		name: "static",
		configs: []defenseConfig{
			{strength: "off", spec: core.DefenseSpec{}},
			{strength: "mid", spec: core.DefenseSpec{Policies: defenseChain(screenChain)}},
			{strength: "full", spec: core.DefenseSpec{
				Policies:   defenseChain(screenChain),
				RateBudget: 2, RateWindow: 20, Sources: 8,
			}},
		},
		run: func(spec core.DefenseSpec) (float64, core.DefenseReport, error) {
			res, err := core.StaticAttack(staticKS, core.StaticOptions{
				Budget:       dims.staticBudget,
				HonestWrites: dims.staticHonest,
				Domain:       staticKS.Max() + 1,
				Seed:         opts.Seed,
				Defense:      spec,
			})
			return damageOf(res, res.Defense, err)
		},
	})

	// --- online: per-epoch regression oracle against the dynamic index ---
	onlineKS, err := DistUniform.generate(root.Split(), dims.onlineN, int64(dims.onlineN)*40)
	if err != nil {
		return DefenseSweepResult{}, fmt.Errorf("bench: defense online set: %w", err)
	}
	arrRNG := root.Split()
	arrivals := make([][]int64, dims.onlineEpochs)
	for e := range arrivals {
		for i := 0; i < dims.onlineArrivals; i++ {
			arrivals[e] = append(arrivals[e], arrRNG.Int63n(int64(dims.onlineN)*40))
		}
	}
	scenarios = append(scenarios, defenseScenario{
		name: "online",
		configs: []defenseConfig{
			{strength: "off", spec: core.DefenseSpec{}},
			{strength: "mid", spec: core.DefenseSpec{Policies: defenseChain(screenChain)}},
			{strength: "full", spec: core.DefenseSpec{
				Policies: defenseChain(screenChain + "|gapout:6"),
			}},
		},
		run: func(spec core.DefenseSpec) (float64, core.DefenseReport, error) {
			res, err := core.OnlinePoisonAttack(onlineKS, core.OnlineOptions{
				Epochs:      dims.onlineEpochs,
				EpochBudget: dims.onlineBudget,
				Policy:      dynamic.ManualPolicy(),
				Arrivals:    arrivals,
				Defense:     spec,
			})
			return damageOf(res, res.Defense, err)
		},
	})

	// --- serve: sharded attack-under-load ---
	serveKS, err := DistUniform.generate(root.Split(), dims.serveN, int64(dims.serveN)*40)
	if err != nil {
		return DefenseSweepResult{}, fmt.Errorf("bench: defense serve set: %w", err)
	}
	scenarios = append(scenarios, defenseScenario{
		name: "serve",
		configs: []defenseConfig{
			{strength: "off", spec: core.DefenseSpec{}},
			{strength: "mid", spec: core.DefenseSpec{Policies: defenseChain(screenChain)}},
			{strength: "full", spec: core.DefenseSpec{
				Policies:   defenseChain(screenChain),
				RateBudget: 4, RateWindow: 20, Sources: 8,
			}},
		},
		run: func(spec core.DefenseSpec) (float64, core.DefenseReport, error) {
			res, err := core.ServeAttack(serveKS, core.ServeOptions{
				Epochs:      dims.serveEpochs,
				OpsPerEpoch: dims.serveOps,
				EpochBudget: dims.serveBudget,
				Shards:      dims.serveShards,
				Policy:      dynamic.ManualPolicy(),
				Workload:    workload.NewZipf(1.1, 90),
				Domain:      int64(dims.serveN) * 40,
				Seed:        opts.Seed,
				Defense:     spec,
			})
			return damageOf(res, res.Defense, err)
		},
	})

	// --- churn: rebuild-pipeline pressure; damage = rebuild-tick ratio ---
	churnKS, err := DistUniform.generate(root.Split(), dims.churnN, int64(dims.churnN)*40)
	if err != nil {
		return DefenseSweepResult{}, fmt.Errorf("bench: defense churn set: %w", err)
	}
	scenarios = append(scenarios, defenseScenario{
		name: "churn",
		configs: []defenseConfig{
			{strength: "off", spec: core.DefenseSpec{}},
			{strength: "mid", spec: core.DefenseSpec{Policies: defenseChain(screenChain)}},
			{strength: "full", spec: core.DefenseSpec{
				Policies:   defenseChain(screenChain),
				RateBudget: 3, RateWindow: 30, Sources: 8,
			}},
		},
		run: func(spec core.DefenseSpec) (float64, core.DefenseReport, error) {
			res, err := core.ChurnAttack(churnKS, core.ChurnOptions{
				Epochs:      dims.churnEpochs,
				OpsPerEpoch: dims.churnOps,
				EpochBudget: dims.churnBudget,
				Shards:      dims.churnShards,
				Policy:      dynamic.BufferLimit(dims.churnBufferK),
				Workload:    workload.NewZipf(1.1, 75),
				Domain:      int64(dims.churnN) * 40,
				Seed:        opts.Seed,
				Cost:        index.CostModel{Fixed: 30},
				Defense:     spec,
			})
			return damageOf(res, res.Defense, err)
		},
	})

	// --- cascade: structural poisoning of the gapped array ---
	cascadeKS, err := DistUniform.generate(root.Split(), dims.cascadeN, int64(dims.cascadeN)*40)
	if err != nil {
		return DefenseSweepResult{}, fmt.Errorf("bench: defense cascade set: %w", err)
	}
	scenarios = append(scenarios, defenseScenario{
		name: "cascade",
		configs: []defenseConfig{
			{strength: "off", spec: core.DefenseSpec{}},
			{strength: "mid", spec: core.DefenseSpec{
				RateBudget: 2, RateWindow: 40, Sources: 16,
			}},
			{strength: "full", spec: core.DefenseSpec{
				BalancedSplit: true,
				RateBudget:    2, RateWindow: 40, Sources: 16,
			}},
		},
		run: func(spec core.DefenseSpec) (float64, core.DefenseReport, error) {
			res, err := core.CascadeAttack(cascadeKS, core.CascadeOptions{
				Epochs:      dims.cascadeEpochs,
				OpsPerEpoch: dims.cascadeOps,
				EpochBudget: dims.cascadeBudget,
				LeafTarget:  dims.cascadeLeaf,
				Workload:    workload.NewZipf(1.1, 80),
				Domain:      int64(dims.cascadeN) * 40,
				Seed:        opts.Seed,
				Defense:     spec,
			})
			return damageOf(res, res.Defense, err)
		},
	})

	// Fan every (scenario × strength) cell across the pool; the inner
	// attacks stay sequential (no nested oversubscription), and the fold is
	// in spec order, so cells land identically for every worker count.
	type cellRef struct {
		scenario *defenseScenario
		config   defenseConfig
	}
	var refs []cellRef
	for i := range scenarios {
		for _, c := range scenarios[i].configs {
			refs = append(refs, cellRef{scenario: &scenarios[i], config: c})
		}
	}
	pool := opts.pool()
	cells, err := engine.Map(context.Background(), pool, len(refs), func(i int) (DefenseCell, error) {
		r := refs[i]
		damage, rep, err := r.scenario.run(r.config.spec)
		if err != nil {
			return DefenseCell{}, fmt.Errorf("bench: defense cell %s/%s: %w", r.scenario.name, r.config.strength, err)
		}
		excess := damage - 1
		if excess < 0 {
			excess = 0
		}
		return DefenseCell{
			Scenario: r.scenario.name,
			Strength: r.config.strength,
			Spec:     SpecLabel(r.config.spec),
			Damage:   damage,
			Excess:   excess,
			Report:   rep,
		}, nil
	})
	if err != nil {
		return DefenseSweepResult{}, err
	}

	// Pareto pass, per scenario: reduction relative to the off cell, then
	// the frontier flag (undominated in reduction-vs-overhead).
	baseline := map[string]float64{}
	for _, c := range cells {
		if c.Strength == "off" {
			baseline[c.Scenario] = c.Excess
		}
	}
	for i := range cells {
		cells[i].Reduction = core.SafeRatio(baseline[cells[i].Scenario], cells[i].Excess)
	}
	for i := range cells {
		dominated := false
		oi := cells[i].Report.HonestBlockedFrac()
		for j := range cells {
			if i == j || cells[j].Scenario != cells[i].Scenario {
				continue
			}
			oj := cells[j].Report.HonestBlockedFrac()
			betterOrEqual := cells[j].Reduction >= cells[i].Reduction && oj <= oi
			strictlyBetter := cells[j].Reduction > cells[i].Reduction || oj < oi
			if betterOrEqual && strictlyBetter {
				dominated = true
				break
			}
		}
		cells[i].Frontier = !dominated
	}
	return DefenseSweepResult{Cells: cells}, nil
}

// Scenarios returns the distinct scenario names in cell order.
func (r DefenseSweepResult) Scenarios() []string {
	var names []string
	seen := map[string]bool{}
	for _, c := range r.Cells {
		if !seen[c.Scenario] {
			seen[c.Scenario] = true
			names = append(names, c.Scenario)
		}
	}
	return names
}

// Best returns the scenario's best cell under the acceptance bar — the
// highest damage reduction among cells with overhead <= maxOverhead —
// and false when no armed cell qualifies.
func (r DefenseSweepResult) Best(scenario string, maxOverhead float64) (DefenseCell, bool) {
	var best DefenseCell
	found := false
	for _, c := range r.Cells {
		if c.Scenario != scenario || c.Strength == "off" || c.Report.HonestBlockedFrac() > maxOverhead {
			continue
		}
		if !found || c.Reduction > best.Reduction {
			best, found = c, true
		}
	}
	return best, found
}
