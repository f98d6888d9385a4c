package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/blockdev"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/testbed"
	"repro/internal/tracing"
	"repro/internal/workload"
)

// Scaling experiment: the cluster extension of the paper's single-client
// comparison. N concurrent clients drive one server (shared Gigabit
// segment, shared server CPU, shared RAID-5 array) and we record how
// aggregate throughput, per-client latency and server CPU utilization
// move as the client count grows — the production-relevant view of the
// paper's Section 4/5 contrasts.

// ScaleWorkloads lists the supported scaling workloads.
var ScaleWorkloads = []string{"seq-write", "seq-read", "rand-read", "rand-write", "postmark"}

// ScaleConfig parameterizes the scaling sweep.
type ScaleConfig struct {
	// Counts are the cluster sizes to sweep (default 1,2,4,8,16).
	Counts []int
	// Workloads to run (default seq-write, rand-read, postmark).
	Workloads []string
	// Stacks restricts the sweep (default all four).
	Stacks []Stack
	// FileSize is the per-client file size for the seq/rand workloads
	// (default 4 MB).
	FileSize int64
	// ChunkSize is the per-op transfer unit (default 4 KB).
	ChunkSize int
	// PostMarkFiles / PostMarkTransactions size each client's PostMark
	// run (default 50 files, 250 transactions).
	PostMarkFiles        int
	PostMarkTransactions int
	// DeviceBlocks is the per-client volume size in 4 KB blocks
	// (default 16384 = 64 MB; the NFS export is scaled by client count).
	DeviceBlocks int64
	// Seed for workload randomness.
	Seed int64
	// Foreground, when positive, switches counts above it to hybrid
	// cells: Foreground clients stay fully mechanistic and the remainder
	// run as a fluid background cohort whose demand is calibrated from a
	// one-client mechanistic run of the same (workload, stack). This is
	// what makes 10,000-client sweeps complete in seconds. 0 keeps every
	// cell purely mechanistic.
	Foreground int
	// Metrics, when non-nil, receives per-cell telemetry tagged with the
	// sweep axes (see docs/METRICS.md).
	Metrics *metrics.Recorder
	// Tracer, when non-nil, records per-op span trees for every measured
	// cell (calibration runs stay untraced; see docs/TRACING.md).
	Tracer *tracing.Tracer

	pool *blockdev.Pool // the cells' shared block pool; see sweepPool
}

func (c *ScaleConfig) fill() {
	if len(c.Counts) == 0 {
		c.Counts = []int{1, 2, 4, 8, 16}
	}
	if len(c.Workloads) == 0 {
		c.Workloads = []string{"seq-write", "rand-read", "postmark"}
	}
	if len(c.Stacks) == 0 {
		c.Stacks = testbed.AllKinds
	}
	if c.FileSize == 0 {
		c.FileSize = 4 << 20
	}
	if c.ChunkSize == 0 {
		c.ChunkSize = 4096
	}
	if c.PostMarkFiles == 0 {
		c.PostMarkFiles = 50
	}
	if c.PostMarkTransactions == 0 {
		c.PostMarkTransactions = 250
	}
	if c.DeviceBlocks == 0 {
		c.DeviceBlocks = 16384
		// Grow the per-client volume with the working set: the file (or
		// PostMark pool at its maximum ~10 KB per file) plus 2x slack
		// for journal, metadata and layout overhead.
		working := c.FileSize
		if pool := int64(c.PostMarkFiles+c.PostMarkTransactions) * 10000; pool > working {
			working = pool
		}
		if need := working / 4096 * 2; need > c.DeviceBlocks {
			c.DeviceBlocks = need
		}
	}
}

// ScaleCell is one (workload, stack, client-count) measurement.
type ScaleCell struct {
	Workload string
	Stack    Stack
	Clients  int
	// Background is the fluid client count inside Clients (0 when the
	// cell ran purely mechanistically).
	Background int

	// Elapsed is the cluster-wide measured window (run + drain).
	Elapsed time.Duration
	// AggBytesPerSec is aggregate data throughput (seq/rand workloads).
	AggBytesPerSec float64
	// AggOpsPerSec is aggregate syscall throughput.
	AggOpsPerSec float64
	// PerClientLatency is the mean per-syscall latency across clients
	// during the run phase (drain excluded).
	PerClientLatency time.Duration
	// ServerCPU is mean server CPU utilization over the window.
	ServerCPU float64
	// Messages is the protocol transaction count over the window.
	Messages int64
}

// RunScaling sweeps client counts for every stack and workload.
func RunScaling(cfg ScaleConfig) ([]ScaleCell, error) {
	cfg.fill()
	cfg.pool = sweepPool(cfg.pool)
	if cfg.Foreground < 0 {
		return nil, fmt.Errorf("scale: negative foreground count %d", cfg.Foreground)
	}
	cal := calibration{}
	var cells []ScaleCell
	for _, wl := range cfg.Workloads {
		for _, stack := range cfg.Stacks {
			for _, n := range cfg.Counts {
				cell, err := runScaleCell(cfg, wl, stack, n, cal)
				if err != nil {
					return nil, fmt.Errorf("scale %s/%v/%d: %w", wl, stack, n, err)
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// maxExportScale caps the shared-export population multiplier: the
// simulated ext3's one-GDT-block geometry tops out near 128 default
// volumes, and it matches the mechanistic client ceiling — like the
// fixed-size export on the paper's testbed, fleets beyond it share the
// largest expressible disk layout.
const maxExportScale = 128

// exportBlocks sizes a cell's volume: iSCSI LUNs stay per-client (the
// array itself is sized by CapacityClients), while one shared NFS export
// must hold every client's working set, clamped at maxExportScale.
func exportBlocks(dev int64, stack Stack, n int) int64 {
	if stack == ISCSI {
		return dev
	}
	if n > maxExportScale {
		n = maxExportScale
	}
	return dev * int64(n)
}

// calibration caches the per-(workload, stack) fluid demand derived from a
// one-client mechanistic run, so a sweep calibrates each column once no
// matter how many hybrid counts it visits.
type calibration map[string]fleet.Demand

// demand returns the cached calibrated demand for a target population of
// n clients, running the one-client measurement on a miss. The
// calibration cluster's storage is sized for the full population so the
// measured client pays the same seek distances the target cell's clients
// will. It runs as an untagged, untraced cell.
func (cal calibration) demand(cfg ScaleConfig, wl string, stack Stack, n int) (fleet.Demand, error) {
	key := fmt.Sprintf("%s|%s|%d", wl, stack, n)
	if d, ok := cal[key]; ok {
		return d, nil
	}
	var dem fleet.Demand
	err := runDriverCell(cellSpec{
		experiment: "scale",
		v:          variant{stack: stack},
		clients:    1,
		cluster: testbed.ClusterConfig{
			Config:          testbed.Config{DeviceBlocks: exportBlocks(cfg.DeviceBlocks, stack, n), Seed: cfg.Seed, Pool: cfg.pool},
			CapacityClients: n,
		},
	}, cfg, wl, func(cl *testbed.Cluster, drivers []func() (bool, error),
		aggBytes int64) (map[string]float64, error) {
		beforeDisk := cl.Array().Busy()
		r, err := runDrivers(cl, drivers)
		if err != nil {
			return nil, err
		}
		after := cl.Snap()
		// The homogeneous cluster multiplexes every client over one segment,
		// so the wire is a shared station calibrated at segment bandwidth.
		dem, err = fleet.Calibrate(fleet.Measured{
			Elapsed:       r.Elapsed,
			Ops:           r.Ops,
			ServerCPUBusy: r.ServerBusy,
			DiskBusy:      cl.Array().Busy() - beforeDisk,
			UpBytes:       after.Net.BytesSent - r.Before.Net.BytesSent,
			DownBytes:     after.Net.BytesRecv - r.Before.Net.BytesRecv,
			Messages:      r.Messages,
			DataBytes:     aggBytes,
		}, cl.Net.Bandwidth())
		return nil, err
	})
	if err != nil {
		return fleet.Demand{}, fmt.Errorf("calibrate: %w", err)
	}
	cal[key] = dem
	return dem, nil
}

// clientDir returns client i's private directory.
func clientDir(i int) string { return fmt.Sprintf("/c%d", i) }

// scaleDrivers runs the unmeasured setup (per-client directories, file
// layout and a cluster-wide cold cache for the read workloads) and builds
// the measured drivers for every mechanistic client. aggBytes is the
// nominal data volume the drivers will move (0 for postmark).
func scaleDrivers(cl *testbed.Cluster, cfg ScaleConfig, wl string) ([]func() (bool, error), int64, error) {
	src := workload.SeqRandConfig{FileSize: cfg.FileSize, ChunkSize: cfg.ChunkSize}
	k := len(cl.Clients)
	for i, c := range cl.Clients {
		if err := c.Mkdir(clientDir(i)); err != nil {
			return nil, 0, err
		}
	}
	w := seqRandIndex(wl)
	if w >= 0 && seqRand[w].reads {
		prep := make([]func() (bool, error), k)
		for i, c := range cl.Clients {
			pc := src
			pc.Seed = cfg.Seed + int64(i)
			prep[i] = workload.PrepareFileSteps(c, clientDir(i)+"/f", pc)
		}
		if err := cl.Run(prep); err != nil {
			return nil, 0, err
		}
		if err := cl.ColdCache(); err != nil {
			return nil, 0, err
		}
	}
	cl.Align()

	drivers := make([]func() (bool, error), k)
	var aggBytes int64
	for i, c := range cl.Clients {
		pc := src
		pc.Seed = cfg.Seed + int64(i)
		path := clientDir(i) + "/f"
		switch {
		case w >= 0:
			drivers[i] = seqRand[w].steps(c, path, pc)
			aggBytes += seqRand[w].bytes(pc)
		case wl == "postmark":
			pm := workload.PostMarkConfig{
				Files:        cfg.PostMarkFiles,
				Transactions: cfg.PostMarkTransactions,
				MinSize:      500,
				MaxSize:      10000,
				Seed:         cfg.Seed + 42 + int64(i),
				Dir:          clientDir(i) + "/pm",
			}
			steps, _, err := workload.PostMarkSteps(c, pm)
			if err != nil {
				return nil, 0, err
			}
			drivers[i] = steps
		default:
			return nil, 0, fmt.Errorf("unknown scaling workload %q", wl)
		}
	}
	return drivers, aggBytes, nil
}

// runScaleCell builds one cluster and measures one workload on it. Counts
// above cfg.Foreground (when set) run hybrid: Foreground mechanistic
// clients against a calibrated fluid background cohort covering the rest,
// with the cell's aggregates synthesized from both halves.
func runScaleCell(cfg ScaleConfig, wl string, stack Stack, n int, cal calibration) (ScaleCell, error) {
	k := n
	var cohorts []fleet.Cohort
	tags := metrics.Tags{"workload": wl}
	if cfg.Foreground > 0 && n > cfg.Foreground {
		k = cfg.Foreground
		dem, err := cal.demand(cfg, wl, stack, n)
		if err != nil {
			return ScaleCell{}, err
		}
		cohorts = []fleet.Cohort{{Clients: n - k, Demand: dem}}
		tags["background"] = itoa(n - k)
	}
	cell := ScaleCell{Workload: wl, Stack: stack, Clients: n}
	err := runDriverCell(cellSpec{
		experiment: "scale",
		v:          variant{stack: stack},
		clients:    n,
		tags:       tags,
		metrics:    cfg.Metrics,
		cluster: testbed.ClusterConfig{
			Config: testbed.Config{
				DeviceBlocks: exportBlocks(cfg.DeviceBlocks, stack, n),
				Seed:         cfg.Seed,
				Tracer:       cfg.Tracer,
				Pool:         cfg.pool,
			},
			Clients:         k,
			Background:      cohorts,
			CapacityClients: n,
		},
	}, cfg, wl, func(cl *testbed.Cluster, drivers []func() (bool, error),
		aggBytes int64) (map[string]float64, error) {
		// Measured window: interleaved run, then drain to quiescence.
		r, err := runDrivers(cl, drivers)
		if err != nil {
			return nil, err
		}
		secs := r.Elapsed.Seconds()
		cell.Elapsed = r.Elapsed
		cell.AggBytesPerSec = float64(aggBytes) / secs
		cell.AggOpsPerSec = float64(r.Ops) / secs
		cell.PerClientLatency = r.LatMean
		cell.ServerCPU = float64(r.ServerBusy) / float64(r.Elapsed)
		cell.Messages = r.Messages
		if op := cl.Fluid(); op != nil {
			// The fleet is homogeneous, so the k mechanistic clients — running
			// against the injected background load — are a sample of the full
			// population: per-client figures (latency) carry over directly and
			// aggregate rates scale by population over sample. The solved
			// operating point's job was setting the injected utilizations; the
			// reported numbers come from the measured sample. Server CPU adds
			// the background share on top of the capacity the foreground left:
			// utilization = fg + rho*(1-fg) under processor sharing.
			scale := float64(n) / float64(k)
			cell.Background = op.Background
			cell.AggOpsPerSec *= scale
			cell.AggBytesPerSec *= scale
			cell.Messages = int64(float64(cell.Messages) * scale)
			rho := op.BackgroundUtil[fleet.StationCPU]
			cell.ServerCPU = cell.ServerCPU + rho*(1-cell.ServerCPU)
		}
		return map[string]float64{
			"elapsed_ns":            float64(cell.Elapsed),
			"agg_bytes_per_sec":     cell.AggBytesPerSec,
			"agg_ops_per_sec":       cell.AggOpsPerSec,
			"per_client_latency_ns": float64(cell.PerClientLatency),
			"server_cpu":            cell.ServerCPU,
			"messages":              float64(cell.Messages),
		}, nil
	})
	return cell, err
}

// RenderScaling prints the sweep grouped by workload: one row block per
// metric, stacks as rows, client counts as columns.
func RenderScaling(w io.Writer, cells []ScaleCell) {
	cols := pivotByCount(cells, func(c ScaleCell) int { return c.Clients })
	g := groupCells(cells, func(c ScaleCell) (string, string) { return c.Workload, c.Stack.String() })
	for _, wl := range g.keys {
		fmt.Fprintf(w, "Scaling: %s (clients sharing one server)\n", wl)
		cols.header(w)
		for _, stack := range testbed.AllKinds {
			cs := g.at[wl][stack.String()]
			if cs == nil {
				continue
			}
			if wl == "postmark" {
				fmt.Fprintf(w, "%-22s%s\n", stack.String()+" kops/s", cols.row(cs,
					func(c ScaleCell) string { return fmt.Sprintf("%.1f", c.AggOpsPerSec/1000) }))
			} else {
				fmt.Fprintf(w, "%-22s%s\n", stack.String()+" MB/s", cols.row(cs,
					func(c ScaleCell) string { return fmt.Sprintf("%.1f", c.AggBytesPerSec/1e6) }))
			}
			fmt.Fprintf(w, "%-22s%s\n", "  per-op latency", cols.row(cs,
				func(c ScaleCell) string { return c.PerClientLatency.Round(time.Microsecond).String() }))
			fmt.Fprintf(w, "%-22s%s\n", "  server CPU", cols.row(cs,
				func(c ScaleCell) string { return fmt.Sprintf("%.0f%%", c.ServerCPU*100) }))
		}
		fmt.Fprintln(w)
	}
}
