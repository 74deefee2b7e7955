package main

// metricDef declares one reported metric. The lists below must match
// BENCHMARK.json, which a test checks.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the median
}

// endToEnd metrics are reported on every workload, each with the meaning
// NOTES.md gives it there. Timing bounds sit at the largest allowed
// share: on the 2-vCPU VM the benchmark was tuned on, the median of a
// CPU-bound run moves by up to 15% between runs minutes apart, whatever
// the run length.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"main_per_s", "1/s", "higher", 0.25},
	{"alt_per_s", "1/s", "higher", 0.25},
	{"main_ms", "ms", "lower", 0.25},
	{"alt_ms", "ms", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.1},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

var perLayer = layerDefs()

func layerDefs() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{name: name, unit: unit, better: better})
	}
	for _, phase := range []string{"cold", "warm"} {
		for _, layer := range driverLayers {
			add(phase+"."+layer+"_s", "s", "lower")
		}
		add(phase+".driver.wall_s", "s", "lower")
	}
	for _, m := range []metricDef{
		{name: "crawler.requests", unit: "count", better: "lower"},
		{name: "crawler.body_mb", unit: "MB", better: "lower"},
		{name: "extract.hash_mb", unit: "MB", better: "lower"},
		{name: "extract.apks", unit: "count", better: "lower"},
		{name: "extract.reports_total", unit: "count", better: "lower"},
		{name: "formats.decodes", unit: "count", better: "lower"},
		{name: "analysis.payload_dedup_ratio", unit: "ratio", better: "higher"},
		{name: "analysis.profiles", unit: "count", better: "lower"},
		{name: "store.puts", unit: "count", better: "lower"},
		{name: "store.put_mb", unit: "MB", better: "lower"},
		{name: "store.gets", unit: "count", better: "lower"},
		{name: "store.get_mb", unit: "MB", better: "lower"},
		{name: "store.warm_report_ratio", unit: "ratio", better: "higher"},
		{name: "core.wall_s", unit: "s", better: "lower"},
		{name: "core.trace_overhead_frac", unit: "ratio", better: "lower"},
		{name: "core.fs_read_busy_s", unit: "s", better: "lower"},
		{name: "core.fs_write_busy_s", unit: "s", better: "lower"},
		{name: "core.cold_extracted", unit: "count", better: "lower"},
		{name: "core.cold_warm_reports", unit: "count", better: "higher"},
	} {
		defs = append(defs, m)
	}
	// infer
	add("exec.compile_s", "s", "lower")
	add("exec.pool_busy_frac", "ratio", "higher")
	add("exec.arena_mb", "MB", "lower")
	add("exec.allocs_per_infer", "count", "lower")
	for _, m := range inferModels {
		for _, prec := range []string{"fp32", "int8"} {
			add("exec."+m.name+"."+prec+"_p50_ms", "ms", "lower")
			add("exec."+m.name+"."+prec+"_p99_ms", "ms", "lower")
		}
	}
	for _, class := range inferClasses {
		for _, prec := range []string{"fp32", "int8"} {
			if class == "quant" && prec == "fp32" {
				continue // fp32 programs have no quantize layers
			}
			add("exec.class."+class+"."+prec+"_ns", "ns", "lower")
			add("exec.class."+class+"."+prec+"_gflops", "GFLOP/s", "higher")
		}
	}
	// serve
	for _, r := range append([]string{"submit"}, routeNames()...) {
		add("serve."+r+"_p50_ms", "ms", "lower")
		add("serve."+r+"_p99_ms", "ms", "lower")
	}
	add("serve.query_p50_ms", "ms", "lower")
	add("serve.query_p90_ms", "ms", "lower")
	add("serve.sustained_qps", "1/s", "higher")
	add("serve.query_p99_ms", "ms", "lower")
	add("serve.mixed_p50_ms", "ms", "lower")
	add("serve.mixed_p99_ms", "ms", "lower")
	add("serve.write_alloc_mb", "MB", "lower")
	add("serve.write_peak_rss_mb", "MB", "lower")
	add("serve.not_modified_frac", "ratio", "higher")
	add("serve.handler_ms", "ms", "lower")
	add("serve.corpus_decodes", "count", "lower")
	add("serve.index_builds", "count", "lower")
	add("index.load_ms", "ms", "lower")
	add("index.lookup_us", "us", "lower")
	add("index.diff_us", "us", "lower")
	add("sched.queue_wait_s", "s", "lower")
	add("sched.run_s", "s", "lower")
	add("loadgen.late_ms_p99", "ms", "lower")
	return defs
}
