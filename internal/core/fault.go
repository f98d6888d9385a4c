package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/blockdev"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/testbed"
	"repro/internal/tracing"
)

// Fault experiment: the failure-and-recovery axis. Each cell builds a
// fresh cluster, runs the seeded fault plan from internal/fault against
// it — server crash + journal-replay reboot, RAID member failure +
// contended rebuild, network partitions, client crash — and reports
// time-to-recover, degraded-mode throughput, and lost/retried op counts
// per {family x stack x transport}. The paper benchmarks the happy
// path; this sweep asks which stack degrades and comes back better when
// the same hardware faults hit both.

// FaultConfig parameterizes the sweep.
type FaultConfig struct {
	// Families restricts the fault families (default all four).
	Families []fault.Family
	// Stacks restricts the sweep (default all four).
	Stacks []Stack
	// Transports are the wire models swept (default fluid and TCP).
	Transports []testbed.Transport
	// Clients is the cluster size (default 2: a victim and a witness).
	Clients int
	// Warmup is the fault-free lead-in; Outage each inject-to-heal
	// distance; Flaps the link-flap cycle count (see fault.PlanConfig).
	Warmup, Outage time.Duration
	Flaps          int
	// Victim selects the crashed client / failed array member.
	Victim int
	// Conns is the iSCSI MC/S connection count under TCP (default 1).
	Conns int
	// WindowBytes caps each TCP connection's window (default 64 KB).
	WindowBytes int
	// DeviceBlocks sizes each volume in 4 KB blocks (default 16384 =
	// 64 MB, small enough that a RAID rebuild completes in-cell).
	DeviceBlocks int64
	// Seed drives fault-instant jitter, loss and workload randomness.
	Seed int64
	// Cooldown extends each run past the last heal (default: the fault
	// runner's 2s under RunFault, DefaultHealthCooldown under RunHealth).
	Cooldown time.Duration
	// Health, when non-nil, attaches a gauge scraper + SLO engine to
	// every cell (alert state is per-cell: each cell gets its own
	// monitor built from this spec). Nil keeps RunFault byte-identical
	// to a health-free run; RunHealth always monitors, with the
	// monitor's own interval and objectives when Health is nil.
	Health *health.Config
	// Metrics, when non-nil, receives per-cell telemetry tagged with the
	// sweep axes as experiment=fault or experiment=health (see
	// docs/METRICS.md).
	Metrics *metrics.Recorder
	// Tracer, when non-nil, records per-op span trees for every cell.
	Tracer *tracing.Tracer

	pool *blockdev.Pool // the cells' shared block pool; see sweepPool
}

func (c *FaultConfig) fill() {
	if len(c.Families) == 0 {
		c.Families = append([]fault.Family(nil), fault.Families...)
	}
	if len(c.Stacks) == 0 {
		c.Stacks = testbed.AllKinds
	}
	if len(c.Transports) == 0 {
		c.Transports = []testbed.Transport{testbed.TransportFluid, testbed.TransportTCP}
	}
	if c.Clients <= 0 {
		c.Clients = 2
	}
	if c.Conns == 0 {
		c.Conns = 1
	}
	if c.DeviceBlocks == 0 {
		c.DeviceBlocks = 16384
	}
}

// FaultCell is one (family, stack, transport) recovery measurement: the
// fault runner's result for the cell's plan. Its Collapsed also marks a
// cell whose transport died during setup.
type FaultCell struct {
	Family    fault.Family
	Stack     Stack
	Transport testbed.Transport
	Clients   int
	fault.Result
}

// Label names the variant the way the tables print it.
func (c FaultCell) Label() string { return variantLabel(c.Stack, c.Transport) }

// RunFault sweeps fault families over stacks and transports. Cells come
// out in deterministic order; identical seeds give byte-identical cells
// (the determinism the fault test suite enforces). Invalid pairs (iSCSI
// over UDP) are skipped; a cell that never recovers is reported with
// Collapsed set rather than aborting the sweep.
func RunFault(cfg FaultConfig) ([]FaultCell, error) {
	cfg.fill()
	cfg.pool = sweepPool(cfg.pool)
	var cells []FaultCell
	for _, f := range cfg.Families {
		for _, v := range variants(cfg.Stacks, cfg.Transports, cfg.Conns) {
			cell, err := runFaultCell(cfg, f, v)
			if err != nil {
				return nil, fmt.Errorf("fault %s/%v(%v): %w", f, v.stack, v.transport, err)
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// runPlanCell is the fault-plan cell the fault and health sweeps share:
// a fresh cluster (with its own monitor when cfg.Health is set), family
// f's seeded plan run against it with cfg's cooldown (only its timeline
// when dryRun), and results deriving the end mark's values. The whole
// cell — working-set setup, fault timeline, recovery — sits between the
// begin/end marks. tag is the family the stream carries (the health
// sweep's dry-run control cells replay a real family's timeline under
// their own name). A transport collapse sets *collapse instead of
// failing the cell.
func runPlanCell(experiment string, cfg FaultConfig, v variant, tag, f fault.Family, dryRun bool,
	collapse *bool, results func(*testbed.Cluster, fault.Result) map[string]float64) error {
	plan, err := fault.NewPlan(f, fault.PlanConfig{
		Warmup: cfg.Warmup,
		Outage: cfg.Outage,
		Flaps:  cfg.Flaps,
		Victim: cfg.Victim,
		Seed:   cfg.Seed,
	})
	if err != nil {
		return err
	}
	err = runCell(cellSpec{
		experiment: experiment,
		v:          v,
		clients:    cfg.Clients,
		tags:       metrics.Tags{"family": string(tag)},
		health:     cfg.Health,
		metrics:    cfg.Metrics,
		cluster: testbed.ClusterConfig{Config: testbed.Config{
			DeviceBlocks: cfg.DeviceBlocks,
			Seed:         cfg.Seed,
			WindowBytes:  cfg.WindowBytes,
			Tracer:       cfg.Tracer,
			Pool:         cfg.pool,
		}},
	}, nil, func(cl *testbed.Cluster) (map[string]float64, error) {
		res, err := fault.Run(cl, fault.Config{Plan: plan, Cooldown: cfg.Cooldown, DryRun: dryRun})
		if err != nil {
			return nil, err
		}
		return results(cl, res), nil
	})
	if collapsed(err) {
		*collapse, err = true, nil
	}
	return err
}

// runFaultCell runs one fault plan and reports the recovery measurements
// (or Collapsed: the service never recovered, or a transport died).
func runFaultCell(cfg FaultConfig, f fault.Family, v variant) (FaultCell, error) {
	cell := FaultCell{Family: f, Stack: v.stack, Transport: v.transport, Clients: cfg.Clients}
	err := runPlanCell("fault", cfg, v, f, f, false, &cell.Collapsed,
		func(_ *testbed.Cluster, res fault.Result) map[string]float64 {
			cell.Result = res
			if cell.Collapsed {
				return map[string]float64{"collapsed": 1}
			}
			return map[string]float64{
				"ttr_ns":               float64(cell.TTR),
				"inject_ns":            float64(cell.Inject),
				"recovered_ns":         float64(cell.Recovered),
				"pre_ops_per_sec":      cell.PreRate,
				"degraded_ops_per_sec": cell.DegradedRate,
				"post_ops_per_sec":     cell.PostRate,
				"degraded_ops":         float64(cell.DegradedOps),
				"failed_ops":           float64(cell.FailedOps),
				"lost_ops":             float64(cell.LostOps),
				"rebuild_blocks":       float64(cell.RebuildBlocks),
				"retransmits":          float64(cell.Retransmits),
				"dropped_frames":       float64(cell.Dropped),
			}
		})
	return cell, err
}

// RenderFault prints the sweep: one panel per fault family, one row
// group per stack/transport variant.
func RenderFault(w io.Writer, cells []FaultCell) {
	g := groupCells(cells, func(c FaultCell) (fault.Family, string) { return c.Family, c.Label() })
	for _, f := range g.keys {
		fmt.Fprintf(w, "fault: %s\n", f)
		fmt.Fprintf(w, "%-16s %10s %10s %10s %10s %7s %7s %9s\n",
			"stack", "ttr", "pre/s", "degr/s", "post/s", "failed", "lost", "recovery")
		g.rows(f, func(l string, c FaultCell) {
			if c.Collapsed {
				fmt.Fprintf(w, "%-16s %10s\n", l, "collapse")
				return
			}
			extra := ""
			switch f {
			case fault.DiskFail:
				extra = fmt.Sprintf("rebuild=%d blk", c.RebuildBlocks)
			case fault.LinkFlap:
				extra = fmt.Sprintf("drops=%d", c.Dropped)
			default:
				extra = fmt.Sprintf("retrans=%d", c.Retransmits)
			}
			fmt.Fprintf(w, "%-16s %10s %10.1f %10.1f %10.1f %7d %7d %9s  %s\n",
				l, c.TTR.Round(time.Millisecond), c.PreRate, c.DegradedRate,
				c.PostRate, c.FailedOps, c.LostOps,
				(c.Recovered - c.Healed).Round(time.Millisecond), extra)
		})
		fmt.Fprintln(w)
	}
}
