package main

// The traced run's per-layer metrics and the self-time breakdown table.

import (
	"fmt"
	"os"
)

// ratio is a/b, or 0 when nothing was measured (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// breakdownRow is one line of the self-time table: where a step's wall
// time went, by layer.
type breakdownRow struct {
	name   string
	msStep float64
	share  float64 // of the traced step wall time
}

func layerMetrics(t *tracer, plain, traced []episode) ([]metric, []breakdownRow) {
	var steps, wallT, wallU float64
	var idx indexCounts
	var dc defenseCounts
	for i, e := range traced {
		steps += float64(len(e.steps))
		wallT += float64(e.wall)
		wallU += float64(plain[i].wall)
		idx.retrains += e.idx.retrains
		idx.publishes += e.idx.publishes
		idx.coalesced += e.idx.coalesced
		idx.staleReads += e.idx.staleReads
		idx.reads += e.idx.reads
		dc.attempts += e.defense.attempts
		dc.flagged += e.defense.flagged
		dc.throttled += e.defense.throttled
	}
	rd := t.readTotals()
	sp := func(l layer) spanAcc { return t.spans[l] }
	msPerStep := func(ns int64) float64 { return ratio(float64(ns)/1e6, steps) }
	perCall := func(l layer, scale float64) float64 {
		return ratio(float64(sp(l).total)/scale, float64(sp(l).calls))
	}
	perStep := func(x int64) float64 { return ratio(float64(x), steps) }
	unattributed := wallT - float64(t.selfTotal())

	ms := []metric{
		{"core.greedy_ms_per_call", perCall(lCoreGreedy, 1e6), "ms", ""},
		{"core.rmi_ms_per_call", perCall(lCoreRMI, 1e6), "ms", ""},
		{"core.candidates_per_poison_key", ratio(float64(t.candidates), float64(t.greedyPoison)), "count", ""},
		{"core.prune_visited_frac", ratio(float64(t.blocksVisited), float64(t.blocksTotal)), "frac", ""},
		{"core.oracle_ms_per_step", msPerStep(sp(lOracle).total), "ms", ""},
		{"core.scenario_self_ms_per_step", msPerStep(sp(lCoreScenario).self), "ms", ""},
		{"engine.oracle_cores_busy", ratio(float64(t.oracleCPU), float64(t.oracleWall)), "cores", ""},
		{"regression.fit_ms_per_step", msPerStep(sp(lFitOLS).total), "ms", ""},
		{"regression.fit_ns_per_key", ratio(float64(sp(lFitOLS).total), float64(t.fitKeys[lFitOLS])), "ns", ""},
		{"robust.fit_ms_per_step", msPerStep(sp(lFitRobust).total), "ms", ""},
		{"shard.insert_calls_per_step", perStep(sp(lShardInsert).calls), "count", ""},
		{"shard.insert_ns", perCall(lShardInsert, 1), "ns", ""},
		{"shard.insert_accept_frac", ratio(float64(t.insertAccepted), float64(sp(lShardInsert).calls)), "frac", ""},
		{"shard.retrain_ms_per_step", msPerStep(sp(lShardRetrain).total), "ms", ""},
		{"shard.rebuild_keys_per_retrain", ratio(float64(t.rebuildKeys), float64(t.retrains+t.policyRetrains)), "count", ""},
		{"shard.keys_calls_per_step", perStep(sp(lShardKeys).calls), "count", ""},
		{"shard.keys_ms_per_step", msPerStep(sp(lShardKeys).total), "ms", ""},
		{"shard.stats_ms_per_step", msPerStep(sp(lShardStats).total), "ms", ""},
		{"shard.snapshot_ns", perCall(lShardSnapshot, 1), "ns", ""},
		{"shard.lookup_calls_per_step", perStep(rd.lookups), "count", ""},
		{"shard.lookup_ns", ratio(float64(rd.lookupNS), float64(rd.lookups)), "ns", ""},
		{"shard.probes_per_lookup", ratio(float64(rd.probes), float64(rd.lookups)), "count", ""},
		{"shard.probe_batch_ns_per_key", ratio(float64(rd.batchNS), float64(rd.batchKeys)), "ns", ""},
		{"defense.screen_ms_per_step", msPerStep(sp(lDefense).self), "ms", ""},
		{"defense.flagged_frac", ratio(float64(dc.flagged), float64(dc.attempts)), "frac", ""},
		{"defense.throttled_frac", ratio(float64(dc.throttled), float64(dc.attempts)), "frac", ""},
		{"serve.reader_busy_frac", ratio(float64(rd.lookupNS), float64(sp(lServe).total)*float64(workers())), "frac", ""},
		{"serve.self_ms_per_step", msPerStep(sp(lServe).self), "ms", ""},
		{"index.retrains_per_step", perStep(idx.retrains), "count", ""},
		{"index.publishes_per_step", perStep(idx.publishes), "count", ""},
		{"index.coalesced_per_step", perStep(idx.coalesced), "count", ""},
		{"index.stale_read_frac", ratio(float64(idx.staleReads), float64(idx.reads)), "frac", ""},
		{"bench.unattributed_ms_per_step", ratio(unattributed/1e6, steps), "ms", ""},
		{"trace.overhead_frac", ratio(wallT, wallU) - 1, "frac", ""},
	}

	var rows []breakdownRow
	for l := layer(0); l < numLayers; l++ {
		if self := t.spans[l].self; self != 0 {
			rows = append(rows, breakdownRow{l.String() + " (self)", msPerStep(self), ratio(float64(self), wallT)})
		}
	}
	rows = append(rows,
		breakdownRow{"unattributed", ratio(unattributed/1e6, steps), ratio(unattributed, wallT)},
		breakdownRow{"step wall (traced)", ratio(wallT/1e6, steps), 1},
		breakdownRow{"step wall (untraced)", ratio(wallU/1e6, steps), ratio(wallU, wallT)},
	)
	if rd.lookups > 0 || rd.batchKeys > 0 {
		// Reads run on reader or pool goroutines, beside the writer's
		// spans, so they are shown as busy time, not as a share.
		rows = append(rows, breakdownRow{"reads busy, all goroutines", ratio(float64(rd.lookupNS+rd.batchNS)/1e6, steps), ratio(float64(rd.lookupNS+rd.batchNS), wallT)})
	}
	return ms, rows
}

func printBreakdown(out *os.File, rows []breakdownRow) {
	fmt.Fprintf(out, "  %-34s %12s %8s\n", "self time by layer", "ms/step", "share")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-34s %12.4f %7.1f%%\n", r.name, r.msStep, 100*r.share)
	}
}
