package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/metrics"
)

// The traced run: the same passes as the end-to-end run, instrumented
// from outside. Its phases, in order:
//
//	baseline   untraced passes, for bench.trace_overhead_ratio
//	traced     spans around the benchmark's calls, a syscall decorator, a
//	           recorder for the simulator's own counters, a CPU profile
//	heap       passes with runtime.MemProfileRate = 1, folded by layer
//	layers     each layer alone on a fixed script
//	on/off     (observed only) one telemetry plane attached against none
//
// The time budget is split over the first three; every phase makes at
// least two passes (one for heap, which runs several times slower).

// traceDir is where the run leaves its spans, under the build directory
// the repository's .gitignore already names.
const traceDir = ".bench_build/traces"

func tracedRun(r *runner, seconds float64) (result, error) {
	m := newMetrics(perLayer)
	budget := time.Duration(seconds * float64(time.Second))
	if _, err := r.pass(nil); err != nil { // warm-up
		return result{}, err
	}

	var base, traced passSample
	if err := r.timedPasses(&base, budget/4, min(2, r.minPasses), nil); err != nil {
		return result{}, err
	}

	// Traced phase.
	log := newSpanLog()
	var events bytes.Buffer
	sink := metrics.NewSink(&events)
	rec := metrics.NewRecorder(sink, metrics.Tags{"cmd": "hostbench"})
	var profile bytes.Buffer
	if err := pprof.StartCPUProfile(&profile); err != nil {
		return result{}, err
	}
	pprof.SetGoroutineLabels(untimedCtx)
	err := r.timedPasses(&traced, budget/3, min(2, r.minPasses), func(p *pass) {
		log.pass++
		p.log, p.rec, p.tee, p.profiled = log, rec, &events, true
	})
	pprof.StopCPUProfile()
	pprof.SetGoroutineLabels(context.Background())
	if err != nil {
		return result{}, err
	}
	passes := float64(len(traced.regions))
	set(m, "bench.trace_overhead_ratio", traced.passMs()/base.passMs())
	spanMetrics(m, log.spans)

	if err := workCounts(m, &events, sink, passes); err != nil {
		return result{}, err
	}
	// Passes do identical work, so the last one stands for all of them.
	set(m, "sim.virtual_s_per_pass", traced.last.virtual.Seconds())
	set(m, "tracing.spans", float64(traced.last.telemetrySpans))

	samples, err := parseCPUProfile(profile.Bytes())
	if err != nil {
		return result{}, err
	}
	for layer, share := range foldCPU(samples) {
		set(m, layer+".cpu_share", share)
	}

	// Heap phase.
	if err := heapPhase(r, m); err != nil {
		return result{}, err
	}

	// Standalone layers.
	for _, b := range layerBenches {
		v, err := runLayerBench(b, r.seed)
		if err != nil {
			return result{}, err
		}
		set(m, b.metric, v)
	}

	if r.w.planes != nil {
		if err := onOffRatios(r, m); err != nil {
			return result{}, err
		}
	}

	if err := saveSpans(r.w.name, r.seed, log.spans); err != nil {
		fmt.Fprintf(r.stderr, "hostbench: spans not saved: %v\n", err)
	}
	printSelfTimes(r, log.spans)
	fmt.Fprintf(r.stderr, "hostbench: %s: %d baseline passes (%.1f ms), %d traced (%.1f ms), %d spans\n",
		r.w.name, len(base.regions), base.passMs(), len(traced.regions), traced.passMs(), len(log.spans))
	return r.result(m), nil
}

// spanMetrics derives the call-span metrics: per span name the median
// over passes of the time spent under that name, and for syscalls the
// distribution over all of them.
func spanMetrics(m map[string]metricValue, spans []span) {
	for name, perPass := range perPassTotals(spans) {
		if name == spanSyscall {
			continue
		}
		if _, ok := m[name+"_ms"]; ok {
			set(m, name+"_ms", median(perPass))
		}
	}
	var us []float64
	passes := map[int]bool{}
	for _, s := range spans {
		passes[s.Pass] = true
		if s.Name == spanSyscall {
			us = append(us, float64(s.dur())/1e3)
		}
	}
	if len(us) > 0 {
		set(m, "testbed.syscall_us_p50", quantile(us, 0.5))
		set(m, "testbed.syscall_us_p99", quantile(us, 0.99))
		set(m, "testbed.syscalls_per_pass", float64(len(us))/float64(len(passes)))
	}
}

// workCounts reads the simulator's own counters back from the recorder's
// stream and reports them per pass.
func workCounts(m map[string]metricValue, events *bytes.Buffer, sink *metrics.Sink, passes float64) error {
	if err := sink.Err(); err != nil {
		return err
	}
	evs, err := metrics.ReadEvents(events)
	if err != nil {
		return err
	}
	total := map[string]map[string]int64{}
	for _, g := range metrics.Summarize(evs, nil).Groups {
		total[g.Subsys] = g.Counters
	}
	per := func(subsys, counter string) float64 { return float64(total[subsys][counter]) / passes }
	set(m, "simnet.messages", per(metrics.SubsysNet, "messages"))
	set(m, "simnet.bytes", per(metrics.SubsysNet, "bytes_sent")+per(metrics.SubsysNet, "bytes_recv"))
	set(m, "tcpsim.segments", per(metrics.SubsysTCP, "segments"))
	set(m, "tcpsim.retransmits", per(metrics.SubsysTCP, "retransmits"))
	set(m, "sunrpc.calls", per(metrics.SubsysRPC, "calls"))
	set(m, "iscsi.commands", per(metrics.SubsysISCSI, "commands"))
	set(m, "nfs.requests", per(metrics.SubsysNFS, "requests"))
	set(m, "simdisk.blocks_read", per(metrics.SubsysDisk, "blocks_read"))
	set(m, "simdisk.blocks_written", per(metrics.SubsysDisk, "blocks_written"))
	set(m, "ext3.journal_commits", per(metrics.SubsysExt3, "journal_commits"))
	if hits, misses := per(metrics.SubsysExt3, "cache_hits"), per(metrics.SubsysExt3, "cache_misses"); hits+misses > 0 {
		set(m, "ext3.cache_hit_ratio", hits/(hits+misses))
	}
	set(m, "metrics.events", float64(len(evs))/passes)
	return nil
}

// heapPhase runs a pass with every allocation profiled and folds the
// timed regions' allocations by layer.
func heapPhase(r *runner, m map[string]metricValue) error {
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = rate }()
	fold := newHeapFold()
	p, err := r.pass(func(p *pass) { p.heap = fold })
	if err != nil {
		return err
	}
	for layer, c := range fold.byLayer {
		set(m, layer+".alloc_mb_per_pass", float64(c.bytes)/1e6)
		set(m, layer+".kallocs_per_pass", float64(c.objects)/1e3)
	}
	t := fold.total()
	if d := relDiff(float64(p.allocBytes), float64(t.bytes)); d > 0.01 || d < -0.01 {
		return fmt.Errorf("heap by layer sums to %d bytes, the timed regions allocated %d (%.2f%% apart)",
			t.bytes, p.allocBytes, 100*d)
	}
	return nil
}

// onOffRatios times a telemetry workload's pass with exactly one plane
// attached against none attached.
func onOffRatios(r *runner, m map[string]metricValue) error {
	variant := func(tel telemetry) (float64, error) {
		var ms []float64
		for i := 0; i < min(3, r.minPasses); i++ {
			p := &pass{seed: r.seed}
			if err := r.w.planes(p, tel); err != nil {
				return 0, err
			}
			if p.fails > 0 {
				return 0, fmt.Errorf("on/off pass: %s", strings.Join(p.failures, "; "))
			}
			var total float64
			for _, r := range p.regions {
				total += r
			}
			ms = append(ms, total)
		}
		return median(ms), nil
	}
	off, err := variant(telemetry{})
	if err != nil {
		return err
	}
	for _, plane := range []struct {
		metric string
		tel    telemetry
	}{
		{"metrics.on_off_ratio", telemetry{metrics: true}},
		{"tracing.on_off_ratio", telemetry{tracing: true}},
		{"health.on_off_ratio", telemetry{health: true}},
	} {
		on, err := variant(plane.tel)
		if err != nil {
			return err
		}
		set(m, plane.metric, on/off)
	}
	return nil
}

// saveSpans writes the run's spans as JSONL.
func saveSpans(workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.spans.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints, per span name, total and self time per pass.
func printSelfTimes(r *runner, spans []span) {
	self := selfTimes(spans)
	type agg struct{ total, self time.Duration }
	byName := map[string]*agg{}
	var order []string
	passes := map[int]bool{}
	for _, s := range spans {
		passes[s.Pass] = true
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			order = append(order, s.Name)
		}
		a.total += s.dur()
		a.self += self[s.ID]
	}
	n := float64(len(passes))
	fmt.Fprintf(r.stderr, "%s: host time per pass by span (total / self, ms)\n", r.w.name)
	for _, name := range order {
		a := byName[name]
		fmt.Fprintf(r.stderr, "  %-28s %10.2f %10.2f\n", name, float64(a.total)/1e6/n, float64(a.self)/1e6/n)
	}
}
