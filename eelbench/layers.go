package main

// perLayer lists every per-layer metric with its unit, in the order
// README.md explains them.  A traced run reports all of them; a layer
// a workload's operations never call reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"binfile.read_ms", "ms"},
	{"binfile.write_ms", "ms"},
	{"core.load_ms", "ms"},
	{"core.load_allocs", "count"},
	{"core.load_kb", "KiB"},
	{"spawn.decodes", "count"},
	{"spawn.interned", "count"},
	{"pipeline.analyze_ms", "ms"},
	{"pipeline.analyze_allocs", "count"},
	{"pipeline.routines", "count"},
	{"pipeline.cache_hit_frac", "ratio"},
	{"qpt.instrument_ms", "ms"},
	{"qpt.instrument_allocs", "count"},
	{"qpt.counters", "count"},
	{"core.build_ms", "ms"},
	{"core.build_allocs", "count"},
	{"core.spill_frac", "ratio"},
	{"sim.load_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.insts", "count"},
	{"sim.routines_compiled", "count"},
	{"sim.tier_promotions", "count"},
	{"sim.routine_deopts", "count"},
	{"sim.chain_hit_frac", "ratio"},
	{"sim.ic_hit_frac", "ratio"},
	{"sim.victim_hits", "count"},
	{"sim.traces", "count"},
	{"eeld.queue_ms", "ms"},
	{"eeld.run_ms", "ms"},
	{"eeld.transport_ms", "ms"},
	{"eeld.analyze_p50_ms", "ms"},
	{"eeld.instrument_p50_ms", "ms"},
	{"eeld.verify_p50_ms", "ms"},
	{"go.gc_cycles", "count"},
	{"op.unattributed_ms", "ms"},
	{"trace.untraced_ops_per_s", "1/s"},
	{"trace.traced_ops_per_s", "1/s"},
}

// layerMetrics turns a workload's per-layer values into the result's
// metric set, filling every layer the workload did not touch with 0.
func layerMetrics(v map[string]float64) map[string]metric {
	m := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = metric{v[l.name], l.unit}
	}
	return m
}

// clockLayers adds the layer times and allocations a clock measured.
func clockLayers(v map[string]float64, c *layerClock) {
	for _, name := range []string{"binfile.read", "binfile.write", "core.load", "pipeline.analyze",
		"qpt.instrument", "core.build", "sim.load", "sim.run"} {
		v[name+"_ms"] = c.perOpMS(name)
	}
	for _, name := range []string{"core.load", "pipeline.analyze", "qpt.instrument", "core.build"} {
		v[name+"_allocs"] = c.perOpAllocs(name)
	}
	v["core.load_kb"] = c.perOpKiB("core.load")
	v["go.gc_cycles"] = ratio(float64(c.gcs), float64(c.ops))
	v["op.unattributed_ms"] = c.unattributedMS()
}
