package main

import "fmt"

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"throughput", "1/s"},
	{"cpu_ms_per_item", "ms"},
	{"bytes_per_item", "B"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. Every workload reports all
// of them; a layer that is not on a workload's path reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"train.fit_s", "s"},
		{"core.generate_ms", "ms"},
		{"coverage.extract_ms", "ms"},
		{"coverage.extract_alloc_mb", "MB"},
		{"core.synth_round_ms", "ms"},
		{"core.synth_round_alloc_mb", "MB"},
		{"core.switch_point", "count"},
		{"core.synthetic_tests", "count"},
		{"validate.build_suite_ms", "ms"},
		{"validate.seal_ms", "ms"},
		{"validate.open_ms", "ms"},
	}
	for _, l := range probedLayers {
		defs = append(defs,
			metricDef{"nn." + l + ".fwd_us", "us"},
			metricDef{"nn." + l + ".bwd_input_us", "us"},
			metricDef{"nn." + l + ".bwd_sample_us", "us"},
			metricDef{"nn." + l + ".alloc_kb", "KB"},
			metricDef{"nn." + l + ".fwd_gflops", "GFLOP/s"},
		)
	}
	return append(defs,
		metricDef{"validate.dial_ms", "ms"},
		metricDef{"validate.replay_ms", "ms"},
		metricDef{"validate.local_replay_ms", "ms"},
		metricDef{"validate.store_hit_ratio", "ratio"},
		metricDef{"quant.encode_us", "us"},
		metricDef{"quant.decode_us", "us"},
		metricDef{"runtime.alloc_mb_per_op", "MB"},
		metricDef{"runtime.gc_cycles_per_op", "count"},
		metricDef{"runtime.gc_cpu_share", "ratio"},
		metricDef{"op.self_ms", "ms"},
		metricDef{"trace.overhead_ms", "ms"},
	)
}()

// metricSet holds measured values by name.
type metricSet map[string]float64

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// export returns every metric of defs with its unit; a metric that was
// not measured reads 0. A measured name outside defs is a bug.
func (m metricSet) export(defs []metricDef) map[string]metric {
	known := make(map[string]bool, len(defs))
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		known[d.name] = true
		out[d.name] = metric{Value: m[d.name], Unit: d.unit}
	}
	for name := range m {
		if !known[name] {
			panic(fmt.Sprintf("perfbench: metric %q is not declared", name))
		}
	}
	return out
}
