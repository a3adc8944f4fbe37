package main

import (
	"flag"
	"fmt"

	"cdfpoison"
)

// scenarioFlagErrors is how the scenario subcommands' flag sets handle a
// parse error or -h; tests switch it to flag.ContinueOnError to render
// the help text without exiting.
var scenarioFlagErrors = flag.ExitOnError

// scenarioCmd is the flag loader the scenario subcommands (online, serve,
// churn, cascade, throughput, defense) share (DESIGN.md §13). A
// subcommand passes its defaults as a scenarioCmd literal: -in, -epochs,
// -percent and -seed are always registered; -policy, -cost, -workload and
// -shards only when their default is non-zero; -policy also when
// withPolicy is true, and -ops, -workers and -o only when the matching
// with* field is true. parse then reads the key file and resolves
// everything the flags name; an empty -policy is left for the subcommand
// to choose.
type scenarioCmd struct {
	fs *flag.FlagSet

	in, out                                   string
	policySpec, costSpec, workloadSpec        string
	epochs, ops, shards, workers              int
	percent                                   float64
	seed                                      uint64
	withPolicy, withOps, withWorkers, withOut bool

	// Resolved by parse.
	keys   cdfpoison.KeySet
	policy cdfpoison.RetrainPolicy
	cost   cdfpoison.RebuildCostModel
	mix    cdfpoison.Workload
	budget int // poison keys per epoch: -percent of the input keys
}

// newScenarioCmd registers the shared flags on a fresh flag set named
// name, each defaulting to the value d holds.
func newScenarioCmd(name string, d scenarioCmd) *scenarioCmd {
	c := &d
	c.fs = flag.NewFlagSet(name, scenarioFlagErrors)
	fs := c.fs
	fs.StringVar(&c.in, "in", "", "input key file (required)")
	fs.IntVar(&c.epochs, "epochs", d.epochs, "number of attack epochs (retrain or serving cycles)")
	fs.Float64Var(&c.percent, "percent", d.percent, "per-EPOCH poisoning percentage of the input keys")
	fs.Uint64Var(&c.seed, "seed", 42, "rng seed for the honest operation stream")
	if d.policySpec != "" || d.withPolicy {
		fs.StringVar(&c.policySpec, "policy", d.policySpec, "retrain policy (per shard when sharded): manual | every:K | buffer:K")
	}
	if d.costSpec != "" {
		fs.StringVar(&c.costSpec, "cost", d.costSpec, "rebuild cost model: zero | fixed:F | linear:F:P[:U] (zero = synchronous)")
	}
	if d.workloadSpec != "" {
		fs.StringVar(&c.workloadSpec, "workload", d.workloadSpec, "honest mix: uniform[:R] | zipf[:T[:R]] | hotspot[:H[:R]]")
	}
	if d.withOps {
		fs.IntVar(&c.ops, "ops", 0, "honest operations per epoch (default 10% of the input keys)")
	}
	if d.shards != 0 {
		fs.IntVar(&c.shards, "shards", d.shards, "shard count (1 = unsharded)")
	}
	if d.withWorkers {
		fs.IntVar(&c.workers, "workers", 0, "worker pool size: 0 = one per core, 1 = sequential; results are identical for any value")
	}
	if d.withOut {
		fs.StringVar(&c.out, "o", "", "optional output file for the injected poison keys")
	}
	return c
}

// parse parses args, checks the shared flags, reads the key file, and
// resolves the policy, cost and workload specs, the per-epoch budget, and
// the default -ops. Every error names the subcommand.
func (c *scenarioCmd) parse(args []string) error {
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	if err := c.resolve(); err != nil {
		return fmt.Errorf("%s: %w", c.fs.Name(), err)
	}
	return nil
}

func (c *scenarioCmd) resolve() error {
	if c.in == "" {
		return fmt.Errorf("-in is required")
	}
	if c.epochs < 1 {
		return fmt.Errorf("-epochs must be >= 1, got %d", c.epochs)
	}
	if c.percent < 0 {
		return fmt.Errorf("-percent must be >= 0, got %g", c.percent)
	}
	var err error
	if c.keys, err = readKeys(c.in); err != nil {
		return err
	}
	if c.policySpec != "" {
		if c.policy, err = cdfpoison.ParseRetrainPolicy(c.policySpec); err != nil {
			return err
		}
	}
	if c.fs.Lookup("cost") != nil {
		if c.cost, err = cdfpoison.ParseRebuildCost(c.costSpec); err != nil {
			return err
		}
	}
	if c.fs.Lookup("workload") != nil {
		if c.mix, err = cdfpoison.ParseWorkload(c.workloadSpec); err != nil {
			return err
		}
	}
	c.budget = int(float64(c.keys.Len()) * c.percent / 100)
	if c.ops == 0 {
		c.ops = c.keys.Len() / 10
	}
	return nil
}

// writePoison writes the scenario's accepted poison keys to -o, when set.
func (c *scenarioCmd) writePoison(poison cdfpoison.KeySet) error {
	if c.out == "" {
		return nil
	}
	if err := writeKeys(c.out, poison); err != nil {
		return fmt.Errorf("%s: %w", c.fs.Name(), err)
	}
	fmt.Printf("wrote %d poison keys to %s\n", poison.Len(), c.out)
	return nil
}
