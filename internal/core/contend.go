package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/blockdev"
	"repro/internal/metrics"
	"repro/internal/testbed"
	"repro/internal/tracing"
	"repro/internal/workload"
)

// Contention experiment: the cross-client sharing axis. Each cell
// builds a cluster with sharing enabled, points a conflict-heavy
// workload — lock ping-pong, locked shared appends, or a writer against
// readers — at the one shared object, and measures what the sharing
// machinery costs on each stack: lock round trips and denied polls on
// NFS, whole-LUN reservation traffic on iSCSI. The paper compares the
// stacks' happy paths and warns that sharing is where the architectures
// diverge; this sweep quantifies the divergence.

// Contention workload names.
const (
	ContendPingPong = "pingpong"
	ContendAppend   = "append"
	ContendRW       = "readerwriter"
)

// ContendWorkloads is the default workload set, in sweep order.
var ContendWorkloads = []string{ContendPingPong, ContendAppend, ContendRW}

// ContendConfig parameterizes the sweep.
type ContendConfig struct {
	// Workloads restricts the contention workloads (default all three).
	Workloads []string
	// Stacks restricts the sweep (default all four).
	Stacks []Stack
	// Transports are the wire models swept (default fluid and TCP).
	Transports []testbed.Transport
	// Clients is the cluster size (default 4).
	Clients int
	// Iters is the per-client locked-operation count (default 50).
	Iters int
	// RecordSize is the shared-record size in bytes (default 4096).
	RecordSize int
	// PollInterval is the denied-lock poll backoff (default 2 ms).
	PollInterval time.Duration
	// Conns is the iSCSI MC/S connection count under TCP (default 1).
	Conns int
	// WindowBytes caps each TCP connection's window (default 64 KB).
	WindowBytes int
	// DeviceBlocks sizes each volume in 4 KB blocks (default 16384).
	DeviceBlocks int64
	// Seed drives loss and scheduling randomness.
	Seed int64
	// Metrics, when non-nil, receives per-cell telemetry tagged with the
	// sweep axes as experiment=contend (see docs/METRICS.md).
	Metrics *metrics.Recorder
	// Tracer, when non-nil, records per-op span trees for every cell.
	Tracer *tracing.Tracer

	pool *blockdev.Pool // the cells' shared block pool; see sweepPool
}

func (c *ContendConfig) fill() {
	if len(c.Workloads) == 0 {
		c.Workloads = ContendWorkloads
	}
	if len(c.Stacks) == 0 {
		c.Stacks = testbed.AllKinds
	}
	if len(c.Transports) == 0 {
		c.Transports = []testbed.Transport{testbed.TransportFluid, testbed.TransportTCP}
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Iters <= 0 {
		c.Iters = 50
	}
	if c.Conns == 0 {
		c.Conns = 1
	}
	if c.DeviceBlocks == 0 {
		c.DeviceBlocks = 16384
	}
}

// ContendCell is one (workload, stack, transport) contention measurement.
type ContendCell struct {
	Workload  string
	Stack     Stack
	Transport testbed.Transport
	Clients   int

	// Ops are the lock-protected operations completed; Elapsed is the
	// measured window; Rate is Ops/Elapsed in ops/sec.
	Ops     int64
	Elapsed time.Duration
	Rate    float64
	// Grants/Denials are the sharing machinery's admission counts: lock
	// manager grants and denied polls on NFS, reservations taken and
	// reservation conflicts on iSCSI.
	Grants, Denials int64
	// WaitTotal sums every client's denied-poll backoff; WaitMax is the
	// worst single client (the fairness number).
	WaitTotal, WaitMax time.Duration
}

// label names the variant the way the tables print it.
func (c ContendCell) label() string { return variantLabel(c.Stack, c.Transport) }

// RunContention sweeps contention workloads over stacks and transports.
// Cells come out in deterministic order; identical seeds give
// byte-identical metric and trace streams (the determinism suite
// enforces this). Invalid pairs (iSCSI over UDP) are skipped.
func RunContention(cfg ContendConfig) ([]ContendCell, error) {
	cfg.fill()
	cfg.pool = sweepPool(cfg.pool)
	var cells []ContendCell
	for _, wl := range cfg.Workloads {
		for _, v := range variants(cfg.Stacks, cfg.Transports, cfg.Conns) {
			cell, err := runContendCell(cfg, wl, v)
			if err != nil {
				return nil, fmt.Errorf("contend %s/%v(%v): %w", wl, v.stack, v.transport, err)
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// runContendCell builds one sharing-enabled cluster and drives one
// contention workload across its clients.
func runContendCell(cfg ContendConfig, wl string, v variant) (ContendCell, error) {
	wcfg := workload.ContendConfig{
		Iters:        cfg.Iters,
		RecordSize:   cfg.RecordSize,
		PollInterval: cfg.PollInterval,
	}
	cell := ContendCell{
		Workload:  wl,
		Stack:     v.stack,
		Transport: v.transport,
		Clients:   cfg.Clients,
		Ops:       int64(cfg.Iters) * int64(cfg.Clients),
	}
	var steps []workload.Steps
	var stats *workload.ContendStats
	err := runCell(cellSpec{
		experiment: "contend",
		v:          v,
		clients:    cfg.Clients,
		tags:       metrics.Tags{"workload": wl},
		metrics:    cfg.Metrics,
		cluster: testbed.ClusterConfig{
			Config: testbed.Config{
				DeviceBlocks: cfg.DeviceBlocks,
				Seed:         cfg.Seed,
				WindowBytes:  cfg.WindowBytes,
				Tracer:       cfg.Tracer,
				Pool:         cfg.pool,
			},
			Sharing: &testbed.SharingConfig{},
		},
	}, func(cl *testbed.Cluster) error {
		if err := workload.SetupShared(cl.Clients, wcfg); err != nil {
			return err
		}
		switch wl {
		case ContendPingPong:
			steps, stats = workload.LockPingPong(cl.Clients, wcfg)
		case ContendAppend:
			steps, stats = workload.SharedAppend(cl.Clients, wcfg)
		case ContendRW:
			steps, stats = workload.ReaderWriter(cl.Clients, wcfg)
		default:
			return fmt.Errorf("unknown contention workload %q", wl)
		}
		return nil
	}, func(cl *testbed.Cluster) (map[string]float64, error) {
		g0, d0 := cl.ShareCounters()
		t0 := cl.Align()
		if err := cl.Run(workload.Drivers(steps)); err != nil {
			return nil, err
		}
		cell.Elapsed = cl.Align() - t0
		g1, d1 := cl.ShareCounters()
		cell.Grants, cell.Denials = g1-g0, d1-d0
		if cell.Elapsed > 0 {
			cell.Rate = float64(cell.Ops) / cell.Elapsed.Seconds()
		}
		for _, w := range stats.Waits {
			cell.WaitTotal += w
			if w > cell.WaitMax {
				cell.WaitMax = w
			}
		}
		return map[string]float64{
			"ops_per_sec":   cell.Rate,
			"ops":           float64(cell.Ops),
			"elapsed_ns":    float64(cell.Elapsed),
			"lock_grants":   float64(cell.Grants),
			"lock_denials":  float64(cell.Denials),
			"wait_total_ns": float64(cell.WaitTotal),
			"wait_max_ns":   float64(cell.WaitMax),
		}, nil
	})
	return cell, err
}

// RenderContention prints the sweep: one panel per workload, one row per
// stack/transport variant.
func RenderContention(w io.Writer, cells []ContendCell) {
	g := groupCells(cells, func(c ContendCell) (string, string) { return c.Workload, c.label() })
	for _, wl := range g.keys {
		fmt.Fprintf(w, "contend: %s\n", wl)
		fmt.Fprintf(w, "%-16s %10s %10s %8s %8s %12s %12s\n",
			"stack", "ops/s", "elapsed", "grants", "denials", "wait(total)", "wait(max)")
		g.rows(wl, func(l string, c ContendCell) {
			fmt.Fprintf(w, "%-16s %10.1f %10s %8d %8d %12s %12s\n",
				l, c.Rate, c.Elapsed.Round(time.Millisecond), c.Grants, c.Denials,
				c.WaitTotal.Round(time.Millisecond), c.WaitMax.Round(time.Millisecond))
		})
		fmt.Fprintln(w)
	}
}
