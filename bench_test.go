// Package repro's benchmark harness: one testing.B benchmark per table and
// figure in the paper's evaluation. Each benchmark regenerates its
// experiment at a benchmark-friendly scale and reports the headline
// quantities as custom metrics (messages, virtual seconds, ratios), so
// `go test -bench=. -benchmem` reproduces the entire evaluation.
//
// The paper-faithful full-scale runs are cmd/repro experiments; see
// EXPERIMENTS.md for the side-by-side against the paper's numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
	"repro/internal/tracing"
	"repro/internal/workload"
)

// benchJSON, when set, appends every headline metric to a JSONL telemetry
// stream in the unified event schema (docs/METRICS.md: subsys "bench",
// point events tagged {bench, metric}), so CI runs accumulate a
// machine-readable perf trajectory across PRs that cmd/metrics can
// validate and summarize alongside sweep telemetry:
//
//	go test -bench=. -benchjson=bench.jsonl .
//	go run ./cmd/metrics -by bench,metric bench.jsonl
var benchJSON = flag.String("benchjson", "", "append headline benchmark metrics as JSONL telemetry events to this file")

type benchRecord struct {
	bench  string
	metric string
	value  float64
	n      int
}

// benchRecords holds the latest value per (bench, metric). The testing
// framework re-invokes each benchmark while calibrating b.N, so records
// are buffered (last calibration round wins) and flushed once in TestMain
// — one JSON line per metric per `go test` run.
var benchRecords = map[string]benchRecord{}

// report records a headline metric as a testing.B custom metric and, when
// -benchjson is set, as a telemetry point event.
func report(b *testing.B, value float64, metric string) {
	b.ReportMetric(value, metric)
	benchRecords[b.Name()+"\x00"+metric] = benchRecord{b.Name(), metric, value, b.N}
}

func TestMain(m *testing.M) {
	code := m.Run()
	if err := flushBenchJSON(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// flushBenchJSON appends the buffered records in sorted key order. Bench
// events are wall-clock measurements with no virtual timeline, so they
// carry t=0 (the documented convention for subsys "bench").
func flushBenchJSON() error {
	if *benchJSON == "" || len(benchRecords) == 0 {
		return nil
	}
	keys := make([]string, 0, len(benchRecords))
	for k := range benchRecords {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	f, err := os.OpenFile(*benchJSON, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, k := range keys {
		r := benchRecords[k]
		e := metrics.Event{
			Subsys: metrics.SubsysBench,
			Kind:   metrics.KindPoint,
			Tags:   metrics.Tags{"bench": r.bench, "metric": r.metric},
			Values: map[string]float64{"value": r.value, "n": float64(r.n)},
		}
		line, err := e.Encode()
		if err != nil {
			return err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// benchOpts keeps per-iteration work modest.
func benchOpts() core.Options {
	return core.Options{DeviceBlocks: 131072}
}

// BenchmarkTable2ColdCacheSyscalls regenerates Table 2 for a
// representative subset of operations.
func BenchmarkTable2ColdCacheSyscalls(b *testing.B) {
	ops := []string{"mkdir", "chdir", "readdir", "creat", "stat"}
	var total int64
	for i := 0; i < b.N; i++ {
		for _, name := range ops {
			op, err := core.FindMicroOp(name)
			if err != nil {
				b.Fatal(err)
			}
			for _, stack := range testbed.AllKinds {
				n, err := core.MicroCount(benchOpts(), op, 0, stack, false)
				if err != nil {
					b.Fatal(err)
				}
				total += n
			}
		}
	}
	report(b, float64(total)/float64(b.N), "messages/iter")
}

// BenchmarkTable3WarmCacheSyscalls regenerates Table 3 for the same subset.
func BenchmarkTable3WarmCacheSyscalls(b *testing.B) {
	ops := []string{"mkdir", "chdir", "readdir", "creat", "stat"}
	var total int64
	for i := 0; i < b.N; i++ {
		for _, name := range ops {
			op, err := core.FindMicroOp(name)
			if err != nil {
				b.Fatal(err)
			}
			for _, stack := range testbed.AllKinds {
				n, err := core.MicroCount(benchOpts(), op, 0, stack, true)
				if err != nil {
					b.Fatal(err)
				}
				total += n
			}
		}
	}
	report(b, float64(total)/float64(b.N), "messages/iter")
}

// BenchmarkFigure3BatchingEffects regenerates the update-aggregation curve
// for mkdir and reports the amortized cost at the largest batch.
func BenchmarkFigure3BatchingEffects(b *testing.B) {
	var amortized float64
	for i := 0; i < b.N; i++ {
		series, err := core.RunFigure3(benchOpts(), []int{1, 64, 256})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			if s.Op == "mkdir" {
				amortized = s.Points[len(s.Points)-1].PerOpMsgs
			}
		}
	}
	report(b, amortized, "msgs/op@256")
}

// BenchmarkFigure4DirectoryDepth regenerates the depth sweep at three
// depths and reports the iSCSI cold slope.
func BenchmarkFigure4DirectoryDepth(b *testing.B) {
	var slope float64
	for i := 0; i < b.N; i++ {
		op, _ := core.FindMicroOp("mkdir")
		d0, err := core.MicroCount(benchOpts(), op, 0, core.ISCSI, false)
		if err != nil {
			b.Fatal(err)
		}
		d8, err := core.MicroCount(benchOpts(), op, 8, core.ISCSI, false)
		if err != nil {
			b.Fatal(err)
		}
		slope = float64(d8-d0) / 8
	}
	report(b, slope, "msgs/level")
}

// BenchmarkFigure5ReadWriteSizes regenerates the size sweep at two sizes.
func BenchmarkFigure5ReadWriteSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.RunFigure5(benchOpts(), []int{4096, 65536}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4SequentialRandom regenerates Table 4 at 16 MB and reports
// the sequential-write message ratio (paper: ~29x).
func BenchmarkTable4SequentialRandom(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := core.RunTable4(benchOpts(), 16<<20)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Workload == "Sequential writes" && r.ISCSI.Messages > 0 {
				ratio = float64(r.NFS.Messages) / float64(r.ISCSI.Messages)
			}
		}
	}
	report(b, ratio, "nfs/iscsi-write-msgs")
}

// BenchmarkFigure6LatencySweep regenerates two points of the latency sweep
// at 8 MB and reports the NFS write slowdown from 10 ms to 50 ms RTT.
func BenchmarkFigure6LatencySweep(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		pts, err := core.RunFigure6(benchOpts(), 8<<20,
			[]time.Duration{10 * time.Millisecond, 50 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		lo := pts[0].Seconds[core.NFSv3]["seq-write"]
		hi := pts[1].Seconds[core.NFSv3]["seq-write"]
		if lo > 0 {
			slowdown = hi / lo
		}
	}
	report(b, slowdown, "nfs-write-slowdown-10to50ms")
}

// BenchmarkTable5PostMark regenerates Table 5 at 2% scale and reports the
// iSCSI speedup.
func BenchmarkTable5PostMark(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := core.RunTable5(benchOpts(), core.MacroScale(0.02))
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		if r.ISCSI.Elapsed > 0 {
			speedup = float64(r.NFS.Elapsed) / float64(r.ISCSI.Elapsed)
		}
	}
	report(b, speedup, "iscsi-speedup")
}

// BenchmarkTable6TPCC regenerates Table 6 at 10% scale and reports the
// normalized throughput (paper: 1.08).
func BenchmarkTable6TPCC(b *testing.B) {
	var norm float64
	for i := 0; i < b.N; i++ {
		row, err := core.RunTable6(benchOpts(), core.MacroScale(0.1))
		if err != nil {
			b.Fatal(err)
		}
		norm = row.Normalized
	}
	report(b, norm, "normalized-tpmC")
}

// BenchmarkTable7TPCH regenerates Table 7 at 10% scale and reports the
// normalized throughput (paper: 1.07).
func BenchmarkTable7TPCH(b *testing.B) {
	var norm float64
	for i := 0; i < b.N; i++ {
		row, err := core.RunTable7(benchOpts(), core.MacroScale(0.1))
		if err != nil {
			b.Fatal(err)
		}
		norm = row.Normalized
	}
	report(b, norm, "normalized-QphH")
}

// BenchmarkTable8OtherBenchmarks regenerates Table 8 at 25% scale and
// reports the tar speedup (paper: 12x).
func BenchmarkTable8OtherBenchmarks(b *testing.B) {
	var tarSpeedup float64
	for i := 0; i < b.N; i++ {
		rows, err := core.RunTable8(benchOpts(), core.MacroScale(0.25))
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].ISCSI.Elapsed > 0 {
			tarSpeedup = float64(rows[0].NFS.Elapsed) / float64(rows[0].ISCSI.Elapsed)
		}
	}
	report(b, tarSpeedup, "tar-speedup")
}

// BenchmarkTable9ServerCPU regenerates the server CPU comparison on
// PostMark and reports the NFS:iSCSI utilization ratio (paper: ~6x).
func BenchmarkTable9ServerCPU(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		cfg := workload.PostMarkConfig{Files: 300, Transactions: 3000, MinSize: 500, MaxSize: 10000, Seed: 42}
		var nfsCPU, iscsiCPU float64
		for _, kind := range []testbed.Kind{testbed.NFSv3, testbed.ISCSI} {
			tb, err := testbed.New(testbed.Config{Kind: kind, DeviceBlocks: 131072})
			if err != nil {
				b.Fatal(err)
			}
			res, _, err := workload.PostMark(tb, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if kind == testbed.NFSv3 {
				nfsCPU = res.ServerCPU
			} else {
				iscsiCPU = res.ServerCPU
			}
		}
		if iscsiCPU > 0 {
			ratio = nfsCPU / iscsiCPU
		}
	}
	report(b, ratio, "server-cpu-ratio")
}

// BenchmarkTable10ClientCPU regenerates the client CPU comparison on
// PostMark and reports the iSCSI:NFS utilization ratio (paper: ~12x).
func BenchmarkTable10ClientCPU(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		cfg := workload.PostMarkConfig{Files: 300, Transactions: 3000, MinSize: 500, MaxSize: 10000, Seed: 42}
		var nfsCPU, iscsiCPU float64
		for _, kind := range []testbed.Kind{testbed.NFSv3, testbed.ISCSI} {
			tb, err := testbed.New(testbed.Config{Kind: kind, DeviceBlocks: 131072})
			if err != nil {
				b.Fatal(err)
			}
			res, _, err := workload.PostMark(tb, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if kind == testbed.NFSv3 {
				nfsCPU = res.ClientCPU
			} else {
				iscsiCPU = res.ClientCPU
			}
		}
		if nfsCPU > 0 {
			ratio = iscsiCPU / nfsCPU
		}
	}
	report(b, ratio, "client-cpu-ratio")
}

// BenchmarkTransport runs the virtual-time TCP transport sweep at a small
// scale and reports the two headline transport results: the iSCSI MC/S
// speedup from 1 to 4 connections on a 40 ms link (Kumar et al.), and the
// ratio of NFS-over-UDP to NFS-over-TCP degradation at 5% frame loss.
func BenchmarkTransport(b *testing.B) {
	var mcsSpeedup, udpPenalty float64
	for i := 0; i < b.N; i++ {
		cells, err := core.RunTransport(core.TransportConfig{
			Stacks:       []core.Stack{core.NFSv3, core.ISCSI},
			Workloads:    []string{"seq-read"},
			RTTs:         []time.Duration{40 * time.Millisecond},
			LossRates:    []float64{0, 0.05},
			Conns:        []int{1, 4},
			FileSize:     1 << 20,
			DeviceBlocks: 8192,
			Seed:         42,
		})
		if err != nil {
			b.Fatal(err)
		}
		pick := func(stack core.Stack, tr string, conns int, loss float64) core.TransportCell {
			for _, c := range cells {
				if c.Stack == stack && c.Transport.String() == tr && c.Conns == conns && c.Loss == loss {
					return c
				}
			}
			b.Fatalf("missing cell %v/%s x%d loss=%g", stack, tr, conns, loss)
			return core.TransportCell{}
		}
		one := pick(core.ISCSI, "tcp", 1, 0)
		four := pick(core.ISCSI, "tcp", 4, 0)
		if one.BytesPerSec > 0 {
			mcsSpeedup = four.BytesPerSec / one.BytesPerSec
		}
		udp := pick(core.NFSv3, "udp", 1, 0.05)
		tcp := pick(core.NFSv3, "tcp", 1, 0.05)
		if tcp.Elapsed > 0 {
			udpPenalty = float64(udp.Elapsed) / float64(tcp.Elapsed)
		}
	}
	report(b, mcsSpeedup, "iscsi-mcs-speedup-4c")
	report(b, udpPenalty, "nfs-udp/tcp-elapsed@5%loss")
}

// BenchmarkReplay replays a slice of the EECS-like trace through the full
// protocol stacks over virtual-time TCP and reports the NFS v3 p99 per-op
// latency and throughput alongside the iSCSI p99 (the replayed version of
// the paper's meta-data latency gap, for the perf trajectory).
func BenchmarkReplay(b *testing.B) {
	var p99us, opsPerSec, iscsiP99us float64
	for i := 0; i < b.N; i++ {
		cells, err := core.RunReplay(core.ReplayConfig{
			Profiles:     []string{"eecs"},
			Stacks:       []core.Stack{core.NFSv3, core.ISCSI},
			Transports:   []testbed.Transport{testbed.TransportTCP},
			Clients:      2,
			MaxOps:       400,
			DirMod:       32,
			DeviceBlocks: 8192,
			Seed:         42,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			switch c.Stack {
			case core.NFSv3:
				p99us = float64(c.P99.Microseconds())
				opsPerSec = c.OpsPerSec
			case core.ISCSI:
				iscsiP99us = float64(c.P99.Microseconds())
			}
		}
	}
	report(b, p99us, "nfsv3-replay-p99-us")
	report(b, opsPerSec, "nfsv3-replay-ops/s")
	report(b, iscsiP99us, "iscsi-replay-p99-us")
}

// BenchmarkFigure7TraceSharing regenerates the sharing analysis.
func BenchmarkFigure7TraceSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range []trace.Profile{trace.EECS(), trace.Campus()} {
			recs := trace.Synthesize(p)
			trace.AnalyzeSharing(recs, []time.Duration{16 * time.Second, 256 * time.Second})
		}
	}
}

// BenchmarkSection7Enhancements regenerates the meta-data cache and
// delegation simulations and reports the EECS delegation reduction.
func BenchmarkSection7Enhancements(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		recs := trace.Synthesize(trace.EECS())
		trace.SimulateMetadataCache(recs, 1024)
		res := trace.SimulateDelegation(recs)
		reduction = res.MessageReduction
	}
	report(b, reduction*100, "delegation-reduction-%")
}

// BenchmarkScaling runs the multi-client cluster sweep at a small scale
// and reports aggregate iSCSI and NFS v3 sequential-write throughput at 4
// clients (the headline scaling metric for the perf trajectory).
func BenchmarkScaling(b *testing.B) {
	var iscsiMBps, nfsMBps float64
	for i := 0; i < b.N; i++ {
		cells, err := core.RunScaling(core.ScaleConfig{
			Counts:       []int{4},
			Workloads:    []string{"seq-write"},
			Stacks:       []core.Stack{core.NFSv3, core.ISCSI},
			FileSize:     1 << 20,
			DeviceBlocks: 8192,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Clients != 4 {
				continue
			}
			switch c.Stack {
			case core.ISCSI:
				iscsiMBps = c.AggBytesPerSec / 1e6
			case core.NFSv3:
				nfsMBps = c.AggBytesPerSec / 1e6
			}
		}
	}
	report(b, iscsiMBps, "iscsi-agg-MBps@4c")
	report(b, nfsMBps, "nfsv3-agg-MBps@4c")
}

// BenchmarkTracing measures the tracing subsystem on one NFS v3 seq-read
// cell, disabled (nil tracer — the zero-cost path every layer calls
// unconditionally; allocation-freedom is test-enforced in
// internal/tracing) against enabled (full span capture), and reports the
// enabled overhead percentage plus spans captured per cell for the perf
// trajectory.
func BenchmarkTracing(b *testing.B) {
	cell := func(tr *tracing.Tracer) time.Duration {
		tb, err := testbed.New(testbed.Config{
			Kind: testbed.NFSv3, DeviceBlocks: 8192, Seed: 42, Tracer: tr,
		})
		if err != nil {
			b.Fatal(err)
		}
		src := workload.SeqRandConfig{FileSize: 1 << 20, ChunkSize: 4096, Seed: 42}
		start := time.Now()
		if _, err := workload.SequentialRead(tb, src); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	var disabled, enabled time.Duration
	var spans float64
	for i := 0; i < b.N; i++ {
		disabled += cell(nil)
		tr := tracing.New(tracing.Config{})
		enabled += cell(tr)
		spans = float64(len(tr.Spans()))
	}
	var overhead float64
	if disabled > 0 {
		overhead = 100 * (float64(enabled)/float64(disabled) - 1)
	}
	report(b, overhead, "enabled-overhead-%")
	report(b, spans, "spans/cell")
}

// BenchmarkSchedulerStep measures the indexed-heap scheduler's
// steady-state per-step cost with 10,000 live procs (each step re-keys
// the heap — the fleet-scale hot path) and reports it for the perf
// trajectory. The O(log N) growth proof across fleet sizes lives in
// internal/sim's BenchmarkScheduler.
func BenchmarkSchedulerStep(b *testing.B) {
	s := sim.NewScheduler()
	for i := 0; i < 10000; i++ {
		c := sim.NewClock()
		d := time.Duration(i%97+1) * time.Microsecond
		s.Spawn(c, func() (bool, error) {
			c.Advance(d)
			return true, nil
		})
	}
	b.ReportAllocs()
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
	report(b, float64(time.Since(start).Nanoseconds())/float64(b.N), "ns/step@10kprocs")
}

// BenchmarkFleetScaling runs one hybrid 10,000-client cell (8
// mechanistic foreground clients, the rest calibrated fluid background)
// and reports the fleet's aggregate throughput and the cell's wall-clock
// cost — the headline for the fleet-scale engine.
func BenchmarkFleetScaling(b *testing.B) {
	var aggMBps, wallMs float64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		cells, err := core.RunScaling(core.ScaleConfig{
			Counts:     []int{10000},
			Workloads:  []string{"seq-write"},
			Stacks:     []core.Stack{core.ISCSI},
			FileSize:   256 << 10,
			Foreground: 8,
			Seed:       5,
		})
		if err != nil {
			b.Fatal(err)
		}
		wallMs = float64(time.Since(start).Milliseconds())
		aggMBps = cells[0].AggBytesPerSec / 1e6
	}
	report(b, aggMBps, "iscsi-agg-MBps@10kc")
	report(b, wallMs, "wall-ms@10kc")
}

// BenchmarkFault runs one server-crash recovery cell per stack on the
// fluid wire and reports the client-visible time-to-recover — the
// headline of the failure-and-recovery axis — plus the degraded-window
// throughput that separates the two caching stories.
func BenchmarkFault(b *testing.B) {
	var nfsTTR, iscsiTTR, nfsDegr, iscsiDegr float64
	for i := 0; i < b.N; i++ {
		cells, err := core.RunFault(core.FaultConfig{
			Families:   []fault.Family{fault.ServerCrash},
			Stacks:     []core.Stack{core.NFSv3, core.ISCSI},
			Transports: []testbed.Transport{testbed.TransportFluid},
			Seed:       7,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Collapsed {
				b.Fatalf("%s/%s collapsed", c.Family, c.Label())
			}
			switch c.Stack {
			case core.NFSv3:
				nfsTTR, nfsDegr = float64(c.TTR.Milliseconds()), c.DegradedRate
			case core.ISCSI:
				iscsiTTR, iscsiDegr = float64(c.TTR.Milliseconds()), c.DegradedRate
			}
		}
	}
	report(b, nfsTTR, "nfs-crash-ttr-ms")
	report(b, iscsiTTR, "iscsi-crash-ttr-ms")
	report(b, nfsDegr, "nfs-degraded-ops/s")
	report(b, iscsiDegr, "iscsi-degraded-ops/s")
}

// BenchmarkHealth measures the health monitor's scrape cost on one
// NFS v3 server-crash recovery cell — the identical fault sweep with
// the monitor detached (nil = the inert path every cluster carries
// unconditionally) against attached with the default SLO set — and
// reports the attached overhead percentage plus the monitored cell's
// crash detection latency and gauge volume for the perf trajectory.
func BenchmarkHealth(b *testing.B) {
	faultCell := func(h *health.Config) time.Duration {
		start := time.Now()
		if _, err := core.RunFault(core.FaultConfig{
			Families:   []fault.Family{fault.ServerCrash},
			Stacks:     []core.Stack{core.NFSv3},
			Transports: []testbed.Transport{testbed.TransportFluid},
			Seed:       7,
			Health:     h,
		}); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	var detached, attached time.Duration
	var ttdMs, gauges float64
	for i := 0; i < b.N; i++ {
		detached += faultCell(nil)
		attached += faultCell(&health.Config{})
		cells, err := core.RunHealth(core.HealthConfig{
			Families:   []fault.Family{fault.ServerCrash},
			Stacks:     []core.Stack{core.NFSv3},
			Transports: []testbed.Transport{testbed.TransportFluid},
			Seed:       5,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if !c.Control {
				ttdMs = float64(c.TTD.Milliseconds())
				gauges = float64(c.GaugeEvents)
			}
		}
	}
	var overhead float64
	if detached > 0 {
		overhead = 100 * (float64(attached)/float64(detached) - 1)
	}
	report(b, overhead, "attached-overhead-%")
	report(b, ttdMs, "crash-ttd-ms")
	report(b, gauges, "gauge-events/cell")
}

// BenchmarkContention runs the lock ping-pong cell on both sharing
// models — NFS byte-range locks vs iSCSI persistent reservations — over
// the fluid wire and reports locked-op throughput and the mean denied
// polls per op (the cross-client sharing headline for the perf
// trajectory), plus the full-stack delegation message reduction from a
// short EECS replay on a delegating NFSv4 cluster (oracle-validated in
// internal/replay).
func BenchmarkContention(b *testing.B) {
	var nfsRate, iscsiRate, nfsPollsPerOp, reduction float64
	for i := 0; i < b.N; i++ {
		cells, err := core.RunContention(core.ContendConfig{
			Workloads:  []string{core.ContendPingPong},
			Stacks:     []core.Stack{core.NFSv3, core.ISCSI},
			Transports: []testbed.Transport{testbed.TransportFluid},
			Clients:    4,
			Iters:      25,
			Seed:       7,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			switch c.Stack {
			case core.NFSv3:
				nfsRate = c.Rate
				nfsPollsPerOp = float64(c.Denials) / float64(c.Ops)
			case core.ISCSI:
				iscsiRate = c.Rate
			}
		}
		cl, err := testbed.NewCluster(testbed.ClusterConfig{
			Config: testbed.Config{
				Kind:         testbed.NFSv4,
				DeviceBlocks: 8192,
				Seed:         11,
			},
			Clients: 4,
			Sharing: &testbed.SharingConfig{Delegation: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		recs := trace.Synthesize(trace.EECS())
		res, err := replay.Run(cl, recs, replay.Options{DirMod: 32, MaxOps: 400})
		if err != nil {
			b.Fatal(err)
		}
		reduction = 100 * (1 - float64(res.Messages)/float64(len(res.Ops)))
	}
	report(b, nfsRate, "nfs-pingpong-ops/s")
	report(b, iscsiRate, "iscsi-pingpong-ops/s")
	report(b, nfsPollsPerOp, "nfs-denied-polls/op")
	report(b, reduction, "delegation-reduction-fullstack-%")
}
