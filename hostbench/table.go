package main

// The benchmark's metric table. BENCHMARK.json at the repository root
// repeats names, units, directions and bounds; a test keeps the two equal.

// metricSpec declares one metric.
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Every workload reports all of them. README.md says where
// each bound came from.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"pass_ms", "ms", "lower", 0.25},
	{"alloc_mb_per_pass", "MB", "lower", 0.03},
	{"kallocs_per_pass", "kallocs", "lower", 0.03},
	{"peak_sys_mb", "MB", "lower", 0.25},
}

// layers are the internal/ packages heap and CPU are folded onto, plus
// "runtime" (no simulator frame on the stack) and "other" (a simulator
// package not listed here).
var layers = []string{
	"sim", "simnet", "netqueue", "tcpsim", "simdisk", "blockdev", "sunrpc",
	"iscsi", "ext3", "nfs", "testbed", "workload", "core", "trace",
	"metrics", "tracing", "health", "runtime", "other",
}

// perLayer are the single-layer metrics of the traced run. A metric that
// does not apply to the workload being run (an artefact span outside
// paper-regen, an on/off ratio outside observed) is reported as 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var out []metricSpec
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{name: n, unit: unit, better: better})
		}
	}
	add("ratio", "lower", "bench.trace_overhead_ratio")

	// 1. Call spans recorded in the workloads.
	add("us", "lower", "testbed.syscall_us_p50", "testbed.syscall_us_p99")
	add("count", "lower", "testbed.syscalls_per_pass")
	add("ms", "lower",
		"testbed.build_ms", "testbed.drain_ms", "testbed.coldcache_ms",
		"workload.seq_write_ms", "workload.rand_write_ms",
		"workload.seq_cold_ms", "workload.rand_warm_ms", "workload.rand_cold_ms",
		"core.table2_ms", "core.table3_ms", "core.figure3_ms", "core.figure4_ms",
		"core.figure5_ms", "core.table4_ms", "core.figure6_ms", "core.table5_ms",
		"core.table6_ms", "core.table7_ms", "core.table8_ms", "core.table9_10_ms",
		"core.figure7_ms", "core.section7_ms",
		"core.transport_ms", "core.wan_ms", "core.scaling_ms", "core.health_ms",
		"metrics.summarize_ms", "tracing.critical_path_ms")

	// 2. Each layer driven alone by a fixed script.
	add("ns", "lower",
		"sim.step_ns",
		"blockdev.store_write_ns", "blockdev.store_read_ns", "blockdev.local_write_ns",
		"ext3.create_ns", "ext3.write4k_ns", "ext3.read4k_ns", "ext3.sync_ns_per_block",
		"iscsi.write_cmd_ns", "iscsi.read_cmd_ns",
		"nfs.write4k_ns", "nfs.read4k_ns", "nfs.getattr_ns",
		"sunrpc.call_ns", "simnet.roundtrip_ns", "tcpsim.segment_ns",
		"metrics.event_ns", "tracing.span_ns")
	add("ms", "lower", "trace.synthesize_ms", "trace.analyze_ms")

	// 3. Heap and host CPU folded by layer.
	for _, l := range layers {
		add("MB", "lower", l+".alloc_mb_per_pass")
		add("kallocs", "lower", l+".kallocs_per_pass")
		add("ratio", "lower", l+".cpu_share")
	}

	// 4. Exact work counts from the simulator's own counters.
	add("count", "lower",
		"simnet.messages", "simnet.bytes", "tcpsim.segments", "tcpsim.retransmits",
		"sunrpc.calls", "iscsi.commands", "nfs.requests",
		"simdisk.blocks_read", "simdisk.blocks_written", "ext3.journal_commits",
		"metrics.events", "tracing.spans")
	add("ratio", "higher", "ext3.cache_hit_ratio")
	add("s", "lower", "sim.virtual_s_per_pass")

	// 5. Telemetry planes on against off (observed only).
	add("ratio", "lower", "metrics.on_off_ratio", "tracing.on_off_ratio", "health.on_off_ratio")
	return out
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newMetrics returns every metric of specs at 0 with its unit, so that a
// run always reports the whole declared set.
func newMetrics(specs []metricSpec) map[string]metricValue {
	m := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		m[s.name] = metricValue{Unit: s.unit}
	}
	return m
}

// set stores a value under a declared name; an undeclared name is a bug.
func set(m map[string]metricValue, name string, v float64) {
	mv, ok := m[name]
	if !ok {
		panic("hostbench: metric " + name + " is not in the table")
	}
	mv.Value = v
	m[name] = mv
}
