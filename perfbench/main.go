// Command perfbench is the repository's end-to-end benchmark. It runs one
// closed-loop workload per invocation against the library's entry points
// (core.GreedyMultiPoint, core.RMIAttack, core.OnlinePoisonAttack,
// serve.RunConcurrent, shard.New/NewWithFit), checks every output, and
// prints its metrics: the end-to-end metrics with -trace 0, the per-layer
// breakdown of a traced run with -trace 1. The last line of standard
// output is one JSON object. See README.md for the workloads and metrics.
//
//	go run . -workload serve-zipf -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"
)

// episode is one unit of closed-loop work: one or more steps run back to
// back, with inputs that depend only on the seed and the episode number.
type episode struct {
	steps []int64 // wall ns per step
	ops   int64

	// Costs of the step region, filled by meter.stop.
	wall, cpuNS, allocBytes int64

	// out holds the deterministic outputs. The traced and untraced runs of
	// one episode must produce reflect.DeepEqual outputs.
	out any

	// Counters the traced run reports that the library already returns.
	idx     indexCounts
	defense defenseCounts
}

// keepFaster keeps, cost by cost and step by step, the lesser of e's and
// o's, where o is another timed run of the same episode.
func (e *episode) keepFaster(o episode) error {
	if len(o.steps) != len(e.steps) || o.ops != e.ops {
		return fmt.Errorf("repeat ran %d steps and %d ops, first run %d and %d", len(o.steps), o.ops, len(e.steps), e.ops)
	}
	for i, ns := range o.steps {
		e.steps[i] = min(e.steps[i], ns)
	}
	e.wall = min(e.wall, o.wall)
	e.cpuNS = min(e.cpuNS, o.cpuNS)
	e.allocBytes = min(e.allocBytes, o.allocBytes)
	return nil
}

type indexCounts struct {
	retrains, publishes, coalesced, staleReads, reads int64
}

type defenseCounts struct {
	attempts, flagged, throttled int64
}

// runner is one benchmark workload, built by its setup function.
type runner interface {
	// run executes episode k. t is nil in the untraced run.
	run(k int, t *tracer) (episode, error)
	// check validates an episode's outputs and returns how many of its
	// steps failed a check.
	check(e *episode) int
	// storedKeys is the number of keys the workload holds live.
	storedKeys() int
}

type workloadDef struct {
	name     string
	setup    func(seed uint64, workers int) (runner, error)
	stepUnit string
	opUnit   string
	group    int // episodes between two timed runs of one episode
}

var workloads = []workloadDef{
	{name: "paper-attacks", setup: setupPaper, stepUnit: "attack round", opUnit: "poison key", group: paperGroup},
	{name: "serve-zipf", setup: setupServe, stepUnit: "epoch", opUnit: "honest or poison op", group: 8},
	{name: "defended-online", setup: setupDefended, stepUnit: "scenario cell", opUnit: "write attempt", group: 40},
}

const (
	setupReps      = 9   // set-ups per run; setup_s is their median
	repeats        = 3   // timed runs of each episode in the untraced run
	minSteps       = 100 // so that at least 10 samples lie beyond p90
	digestEpisodes = 4   // episodes covered by the output digest
	maxRunSeconds  = 120 // hard stop, whatever minSteps asks for
)

func main() {
	name := flag.String("workload", "", "workload: paper-attacks, serve-zipf or defended-online")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 20, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced breakdown instead of the end-to-end metrics")
	flag.Parse()

	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1\n")
		os.Exit(2)
	}
	res, err := runWorkload(def, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// workers is the parallelism every workload uses: one per available CPU.
func workers() int { return runtime.NumCPU() }

// runResult is everything one invocation measured.
type runResult struct {
	def       *workloadDef
	seed      uint64
	traced    bool
	attempted int // steps
	failed    int // steps that failed an output check
	digest    uint64
	episodes  int
	setups    []float64 // seconds per set-up, in order
	metrics   []metric
	breakdown []breakdownRow
}

type metric struct {
	name   string
	value  float64
	unit   string
	better string // "lower", "higher" or "" for per-layer readings
}

func runWorkload(def *workloadDef, seed uint64, seconds float64, traced bool) (*runResult, error) {
	var (
		w      runner
		setups []float64
		err    error
	)
	for i := 0; i < setupReps; i++ {
		w = nil
		runtime.GC()
		start := time.Now()
		if w, err = def.setup(seed, workers()); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	res := &runResult{def: def, seed: seed, traced: traced, setups: setups}
	h := fnv.New64a()
	var (
		plain    []episode // untraced episodes
		withT    []episode // traced twins (traced run only)
		t        *tracer
		begin    = time.Now()
		deadline = time.Duration(seconds * float64(time.Second))
		steps    int
	)
	if traced {
		t = newTracer()
	}
	// The untraced run times every episode repeats times and keeps the
	// fastest, with group episodes between two repeats of one episode, so
	// a burst of interference from outside the process has to hit every
	// repeat to move a step. The traced run times each episode once. A
	// group starts only if it ends nearer the deadline than it would skip.
	reps, group := 1, 1
	if !traced {
		reps, group = repeats, def.group
	}
	var last time.Duration // the latest group's run time
	for g := 0; ; g += group {
		el := time.Since(begin)
		if el >= maxRunSeconds*time.Second || (el+last/2 >= deadline && steps >= minSteps && g >= digestEpisodes) {
			break
		}
		groupStart := time.Now()
		best := make([]episode, group)
		bad := make([]int, group)
		for r := 0; r < reps; r++ {
			for i := range best {
				k := g + i
				var u, v episode
				// Alternate which twin runs first, so warm caches favour neither.
				if traced && k%2 == 1 {
					if v, err = w.run(k, t); err == nil {
						u, err = w.run(k, nil)
					}
				} else if u, err = w.run(k, nil); err == nil && traced {
					v, err = w.run(k, t)
				}
				if err != nil {
					return nil, fmt.Errorf("episode %d: %w", k, err)
				}
				b := w.check(&u)
				if traced && !reflect.DeepEqual(u.out, v.out) {
					b = len(u.steps)
				}
				bad[i] = max(bad[i], b)
				if r == 0 && k < digestEpisodes {
					fmt.Fprintf(h, "%d:%+v\n", k, u.out)
				}
				// Outputs can hold whole key sets; keep only the costs.
				u.out, v.out = nil, nil
				if r == 0 {
					best[i] = u
				} else if err := best[i].keepFaster(u); err != nil {
					return nil, fmt.Errorf("episode %d: %w", k, err)
				}
				if traced {
					withT = append(withT, v)
				}
			}
		}
		last = time.Since(groupStart)
		for i, u := range best {
			res.failed += bad[i]
			res.attempted += len(u.steps)
			steps += len(u.steps)
			plain = append(plain, u)
		}
	}
	res.digest = h.Sum64()
	res.episodes = len(plain)

	if traced {
		res.metrics, res.breakdown = layerMetrics(t, plain, withT)
		return res, nil
	}
	res.metrics = endToEnd(plain, median(setups))
	// The episode records grow with the run; let them go first, so the
	// live heap holds the workload's keys and not how many episodes fit.
	plain = nil
	runtime.GC()
	heap := liveHeapBytes()
	stored := w.storedKeys()
	runtime.KeepAlive(w)
	res.metrics = append(res.metrics, metric{"heap_bytes_per_key", float64(heap) / float64(stored), "B", "lower"})
	return res, nil
}

// endToEnd derives the untraced run's metrics from each episode's fastest
// run. Throughput and CPU per op are medians over episodes, so a burst of
// interference from outside the process moves them less than it would
// move a run-long total.
func endToEnd(eps []episode, setupS float64) []metric {
	var walls []int64
	var rates, cpus []float64
	var ops, alloc int64
	for _, e := range eps {
		walls = append(walls, e.steps...)
		rates = append(rates, float64(e.ops)/(float64(e.wall)/1e9))
		cpus = append(cpus, float64(e.cpuNS)/1e6/float64(e.ops))
		ops += e.ops
		alloc += e.allocBytes
	}
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	return []metric{
		{"setup_s", setupS, "s", "lower"},
		{"ops_per_s", median(rates), "1/s", "higher"},
		{"step_p50_ms", quantile(walls, 0.50) / 1e6, "ms", "lower"},
		{"step_p90_ms", quantile(walls, 0.90) / 1e6, "ms", "lower"},
		{"cpu_ms_per_op", median(cpus), "ms", "lower"},
		{"alloc_bytes_per_op", float64(alloc) / float64(ops), "B", "lower"},
	}
}

// quantile interpolates linearly between the closest ranks of sorted xs.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return float64(xs[lo])
	}
	f := pos - float64(lo)
	return float64(xs[lo])*(1-f) + float64(xs[lo+1])*f
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// print writes the human-readable report, then the JSON result line.
func (r *runResult) print(out *os.File) {
	mode := "end-to-end (untraced)"
	if r.traced {
		mode = "traced breakdown"
	}
	fmt.Fprintf(out, "workload %s  seed %d  %s\n", r.def.name, r.seed, mode)
	fmt.Fprintf(out, "  step = one %s, op = one %s, closed loop, %d workers\n", r.def.stepUnit, r.def.opUnit, workers())
	fmt.Fprintf(out, "  steps %d over %d episodes, failed %d, failed_frac %g\n", r.attempted, r.episodes, r.failed, float64(r.failed)/float64(r.attempted))
	fmt.Fprintf(out, "  digest of episodes 0-%d outputs: %016x\n", digestEpisodes-1, r.digest)
	fmt.Fprintf(out, "  set-up times (s): %.4f\n", r.setups)
	if len(r.breakdown) > 0 {
		printBreakdown(out, r.breakdown)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]jm{}
	for _, m := range r.metrics {
		dir := ""
		if m.better != "" {
			dir = " (" + m.better + " is better)"
		}
		fmt.Fprintf(out, "  %-34s %16.6g %-6s%s\n", m.name, m.value, m.unit, dir)
		ms[m.name] = jm{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(out, string(line))
}
