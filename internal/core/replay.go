package core

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/blockdev"
	"repro/internal/metrics"
	"repro/internal/replay"
	"repro/internal/testbed"
	"repro/internal/trace"
	"repro/internal/tracing"
)

// Replay experiment: the Section 7 workloads driven through the Section
// 5/6 performance machinery. The synthesized EECS-like and Campus-like
// traces (or an arbitrary JSONL op log) replay open-loop through a
// testbed.Cluster on every stack, under both the fluid wire model and
// virtual-time TCP, and the sweep reports per-op latency percentiles and
// aggregate replayed-op throughput per cell.

// ReplayProfiles lists the built-in trace profiles the sweep accepts.
var ReplayProfiles = []string{"eecs", "campus"}

// replayTransports are the wire models swept by default.
var replayTransports = []testbed.Transport{testbed.TransportFluid, testbed.TransportTCP}

// ReplayConfig parameterizes the replay sweep.
type ReplayConfig struct {
	// Profiles selects built-in traces ("eecs", "campus"; default both).
	// Ignored when Records is set.
	Profiles []string
	// Records replays an explicit op log (e.g. trace.ReadJSONL output)
	// instead of the built-in profiles; RecordsName labels its block.
	Records     []trace.Record
	RecordsName string
	// Stacks restricts the sweep (default all four).
	Stacks []Stack
	// Transports restricts the wire models (default fluid and TCP; UDP is
	// accepted for NFS stacks and skipped for iSCSI, which requires TCP).
	Transports []testbed.Transport
	// Clients is the cluster size; traced client ids fold onto it
	// (default 4).
	Clients int
	// MaxOps truncates each trace (default 2000; negative replays
	// everything — a full profile is ~1-2M ops, so unbounded replay is
	// an explicit choice, never a zero-value accident).
	MaxOps int
	// DirMod folds the trace's directory namespace (default 64).
	DirMod int
	// Conns is the iSCSI MC/S connection count under TCP (default 1).
	Conns int
	// WindowBytes caps each TCP connection's window (default 64 KB).
	WindowBytes int
	// DeviceBlocks sizes each client volume in 4 KB blocks (default
	// 16384; the shared NFS export is scaled by client count).
	DeviceBlocks int64
	// Seed for the cluster.
	Seed int64
	// Metrics, when non-nil, receives per-cell telemetry tagged with the
	// sweep axes (see docs/METRICS.md).
	Metrics *metrics.Recorder
	// Tracer, when non-nil, records per-op span trees for every cell
	// (see docs/TRACING.md).
	Tracer *tracing.Tracer

	pool *blockdev.Pool // the cells' shared block pool; see sweepPool
}

func (c *ReplayConfig) fill() {
	if len(c.Profiles) == 0 {
		c.Profiles = ReplayProfiles
	}
	if len(c.Stacks) == 0 {
		c.Stacks = testbed.AllKinds
	}
	if len(c.Transports) == 0 {
		c.Transports = replayTransports
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.MaxOps == 0 {
		c.MaxOps = 2000
	}
	if c.DirMod == 0 {
		c.DirMod = 64
	}
	if c.Conns <= 0 {
		c.Conns = 1
	}
	if c.DeviceBlocks == 0 {
		c.DeviceBlocks = 16384
	}
}

// replayTrace resolves a profile name to its synthesized trace.
func replayTrace(name string) ([]trace.Record, error) {
	switch strings.ToLower(name) {
	case "eecs":
		return trace.Synthesize(trace.EECS()), nil
	case "campus":
		return trace.Synthesize(trace.Campus()), nil
	default:
		return nil, fmt.Errorf("unknown replay profile %q (have %s)",
			name, strings.Join(ReplayProfiles, ", "))
	}
}

// ReplayCell is one (trace, stack, transport) measurement.
type ReplayCell struct {
	Profile   string
	Stack     Stack
	Transport testbed.Transport
	Conns     int
	Clients   int

	// Ops replayed; Elapsed spans the replay window.
	Ops     int
	Elapsed time.Duration
	// Per-op latency percentiles (nearest-rank) and mean.
	P50, P90, P99, Mean time.Duration
	// OpsPerSec is aggregate replayed-op throughput.
	OpsPerSec float64
	// SlowestClientMean is the worst per-client mean latency (the
	// straggler view of the same window).
	SlowestClientMean time.Duration
}

// label names the cell's variant the way the tables print it.
func (c ReplayCell) label() string {
	l := variantLabel(c.Stack, c.Transport)
	if c.Stack == ISCSI && c.Conns > 1 {
		l += fmt.Sprintf(" x%d", c.Conns)
	}
	return l
}

// RunReplay sweeps every (trace, stack, transport) combination. Cells are
// emitted in deterministic order; identical seeds give identical cells.
func RunReplay(cfg ReplayConfig) ([]ReplayCell, error) {
	cfg.fill()
	cfg.pool = sweepPool(cfg.pool)
	type block struct {
		name string
		recs []trace.Record
	}
	var blocks []block
	if cfg.Records != nil {
		name := cfg.RecordsName
		if name == "" {
			name = "oplog"
		}
		blocks = append(blocks, block{name, cfg.Records})
	} else {
		for _, p := range cfg.Profiles {
			recs, err := replayTrace(p)
			if err != nil {
				return nil, err
			}
			blocks = append(blocks, block{p, recs})
		}
	}
	var cells []ReplayCell
	for _, b := range blocks {
		for _, v := range variants(cfg.Stacks, cfg.Transports, cfg.Conns) {
			cell, err := runReplayCell(cfg, b.name, b.recs, v)
			if err != nil {
				return nil, fmt.Errorf("replay %s/%v/%v: %w", b.name, v.stack, v.transport, err)
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// runReplayCell builds one cluster and replays one trace through it.
func runReplayCell(cfg ReplayConfig, name string, recs []trace.Record, v variant) (ReplayCell, error) {
	maxOps := cfg.MaxOps
	if maxOps < 0 {
		maxOps = 0 // replay.Options spells "everything" as 0
	}
	cell := ReplayCell{
		Profile:   name,
		Stack:     v.stack,
		Transport: v.transport,
		Conns:     v.conns,
		Clients:   cfg.Clients,
	}
	err := runCell(cellSpec{
		experiment: "replay",
		v:          v,
		clients:    cfg.Clients,
		tags:       metrics.Tags{"profile": name},
		metrics:    cfg.Metrics,
		cluster: testbed.ClusterConfig{Config: testbed.Config{
			DeviceBlocks: exportBlocks(cfg.DeviceBlocks, v.stack, cfg.Clients),
			Seed:         cfg.Seed,
			WindowBytes:  cfg.WindowBytes,
			Tracer:       cfg.Tracer,
			Pool:         cfg.pool,
		}},
	}, nil, func(cl *testbed.Cluster) (map[string]float64, error) {
		res, err := replay.Run(cl, recs, replay.Options{DirMod: cfg.DirMod, MaxOps: maxOps})
		if err != nil {
			return nil, err
		}
		if len(res.Ops) > 0 {
			lats := make([]time.Duration, len(res.Ops))
			for i, op := range res.Ops {
				lats[i] = op.Latency()
			}
			cl.Metrics().Emit(cl.Horizon(), metrics.SubsysHist, metrics.KindSample,
				nil, metrics.LatencyHistogram(lats), nil)
		}
		cell.Ops, cell.Elapsed = len(res.Ops), res.Elapsed
		cell.P50, cell.P90, cell.P99, cell.Mean = res.P50, res.P90, res.P99, res.Mean
		cell.OpsPerSec = res.OpsPerSec
		for _, c := range res.PerClient {
			if c.Mean > cell.SlowestClientMean {
				cell.SlowestClientMean = c.Mean
			}
		}
		return map[string]float64{
			"ops":         float64(len(res.Ops)),
			"elapsed_ns":  float64(res.Elapsed),
			"p50_ns":      float64(res.P50),
			"p90_ns":      float64(res.P90),
			"p99_ns":      float64(res.P99),
			"mean_ns":     float64(res.Mean),
			"ops_per_sec": res.OpsPerSec,
		}, nil
	})
	return cell, err
}

// RenderReplay prints the sweep grouped by trace: one row per (stack,
// transport) variant with latency percentiles and throughput.
func RenderReplay(w io.Writer, cells []ReplayCell) {
	g := groupCells(cells, func(c ReplayCell) (string, string) { return c.Profile, c.label() })
	for _, p := range g.keys {
		titled := false
		g.rows(p, func(l string, c ReplayCell) {
			if !titled {
				titled = true
				fmt.Fprintf(w, "Trace replay: %s (open-loop, %d clients, %d ops)\n", p, c.Clients, c.Ops)
				fmt.Fprintf(w, "%-18s %9s %9s %9s %9s %9s %10s\n",
					"variant", "p50", "p90", "p99", "mean", "slowest", "ops/s")
			}
			fmt.Fprintf(w, "%-18s %9s %9s %9s %9s %9s %10.1f\n",
				l,
				c.P50.Round(time.Microsecond).String(),
				c.P90.Round(time.Microsecond).String(),
				c.P99.Round(time.Microsecond).String(),
				c.Mean.Round(time.Microsecond).String(),
				c.SlowestClientMean.Round(time.Microsecond).String(),
				c.OpsPerSec)
		})
		fmt.Fprintln(w)
	}
}
