package core

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/blockdev"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/netqueue"
	"repro/internal/testbed"
	"repro/internal/tracing"
)

// WAN experiment: the congestion-coupled cluster sweep. Every client's
// traffic multiplexes through one capacity-limited bottleneck link
// (internal/netqueue) instead of an infinitely-parallel segment, and the
// sweep crosses {bottleneck capacity x queue discipline x per-client
// RTT/loss mix} over growing client counts on all four stacks. It is the
// physically-coupled counterpart of the scaling sweep: aggregate
// throughput must plateau at the pipe while per-client latency grows
// with the standing queue, drop-tail overflow pushes TCP flows into
// recovery against each other, and WAN stragglers contend for the same
// buffer as their LAN peers.

// WANMixes names the built-in per-client heterogeneity profiles.
var WANMixes = []string{"lan", "wan", "straggler", "mixed"}

// WANWorkloads lists the supported WAN-sweep workloads.
var WANWorkloads = []string{"seq-write", "seq-read", "rand-read", "rand-write"}

// MixClients expands a named mix into per-client wire overrides for an
// n-client cluster: "lan" (uniform 200 us), "wan" (uniform 40 ms + 0.1%
// loss), "straggler" (LAN except one 40 ms / 1% loss client), and
// "mixed" (alternating LAN / WAN clients).
func MixClients(mix string, n int) ([]testbed.ClientNet, error) {
	if n < 1 {
		return nil, fmt.Errorf("WAN mix needs at least one client, got %d", n)
	}
	lan := testbed.ClientNet{RTT: 200 * time.Microsecond}
	wan := testbed.ClientNet{RTT: 40 * time.Millisecond, LossRate: 0.001}
	out := make([]testbed.ClientNet, n)
	switch mix {
	case "lan":
		for i := range out {
			out[i] = lan
		}
	case "wan":
		for i := range out {
			out[i] = wan
		}
	case "straggler":
		for i := range out {
			out[i] = lan
		}
		out[n-1] = testbed.ClientNet{RTT: 40 * time.Millisecond, LossRate: 0.01}
	case "mixed":
		for i := range out {
			if i%2 == 0 {
				out[i] = lan
			} else {
				out[i] = wan
			}
		}
	default:
		return nil, fmt.Errorf("unknown WAN mix %q (have lan, wan, straggler, mixed)", mix)
	}
	return out, nil
}

// WANConfig parameterizes the sweep.
type WANConfig struct {
	// Counts are the cluster sizes to sweep (default 1,2,4,8,16).
	Counts []int
	// Stacks restricts the sweep (default all four).
	Stacks []Stack
	// Workloads to run (default seq-write, the pipe-saturating one).
	Workloads []string
	// Transports are the wire models swept under the shared link
	// (default TCP — the congestion-response story; fluid also valid).
	Transports []testbed.Transport
	// Capacities are bottleneck bandwidths in bytes/sec per direction
	// (default Gigabit goodput and a 100 Mbit-class 12 MB/s pipe).
	Capacities []int64
	// Disciplines are the queue disciplines swept (default both).
	Disciplines []netqueue.Discipline
	// Mixes are per-client heterogeneity profiles (default lan,
	// straggler; see MixClients).
	Mixes []string
	// QueueBytes bounds the bottleneck buffer per direction
	// (default 256 KB).
	QueueBytes int
	// Conns is the iSCSI MC/S connection count under TCP (default 1).
	Conns int
	// WindowBytes caps each TCP connection's window (default 64 KB).
	WindowBytes int
	// FileSize is the per-client file size (default 1 MB).
	FileSize int64
	// Seed for loss injection and workload randomness.
	Seed int64
	// Health, when non-nil, attaches a gauge scraper + SLO engine to
	// every cell (one monitor per cell; saturation objectives are the
	// useful ones here — no fault runner observes ops in this sweep).
	// Nil keeps the sweep byte-identical to a health-free run.
	Health *health.Config
	// Metrics, when non-nil, receives per-cell telemetry tagged with the
	// sweep axes as experiment=wan (see docs/METRICS.md).
	Metrics *metrics.Recorder
	// Tracer, when non-nil, records per-op span trees for every cell
	// (see docs/TRACING.md).
	Tracer *tracing.Tracer

	pool *blockdev.Pool // the cells' shared block pool; see sweepPool
}

func (c *WANConfig) fill() {
	if len(c.Counts) == 0 {
		c.Counts = []int{1, 2, 4, 8, 16}
	}
	if len(c.Stacks) == 0 {
		c.Stacks = testbed.AllKinds
	}
	if len(c.Workloads) == 0 {
		c.Workloads = []string{"seq-write"}
	}
	if len(c.Transports) == 0 {
		c.Transports = []testbed.Transport{testbed.TransportTCP}
	}
	if len(c.Capacities) == 0 {
		c.Capacities = []int64{117 << 20, 12 << 20}
	}
	if len(c.Disciplines) == 0 {
		c.Disciplines = []netqueue.Discipline{netqueue.DropTail, netqueue.DRR}
	}
	if len(c.Mixes) == 0 {
		c.Mixes = []string{"lan", "straggler"}
	}
	if c.QueueBytes == 0 {
		c.QueueBytes = 256 << 10
	}
	if c.Conns == 0 {
		c.Conns = 1
	}
	if c.FileSize == 0 {
		c.FileSize = 1 << 20
	}
}

// wanChunkSize is the WAN sweep's per-op transfer unit. runWANCell passes
// it to the scale drivers, which it hands an unfilled ScaleConfig.
const wanChunkSize = 4096

// WANCell is one (workload, stack, transport, mix, discipline, capacity,
// client-count) measurement over the shared bottleneck.
type WANCell struct {
	Workload   string
	Stack      Stack
	Transport  testbed.Transport
	Clients    int
	Capacity   int64
	Discipline netqueue.Discipline
	Mix        string

	// Elapsed is the cluster-wide measured window (run + drain);
	// AggBytesPerSec the aggregate payload throughput over it.
	Elapsed        time.Duration
	AggBytesPerSec float64
	// PerClientLatency is the mean per-syscall latency across clients;
	// StragglerLatency the slowest client's mean — the straggler signal.
	PerClientLatency time.Duration
	StragglerLatency time.Duration
	// ServerCPU is mean server CPU utilization over the window.
	ServerCPU float64
	// Link-level congestion signals over the window: drop-tail queue
	// drops, total head-of-line wait, and the high-water backlog.
	QueueDrops    int64
	HOLWait       time.Duration
	MaxDepthBytes int64
	// Collapsed marks a cell whose configuration suffered congestion
	// collapse: a transport connection died (TCP retransmissions
	// exhausted, or a datagram retry budget spent) before the workload
	// completed, so the cell carries no measurements. The paper's
	// harness would report "server not responding" here; the sweep
	// reports the regime boundary instead of aborting.
	Collapsed bool
}

// Label names the variant the way the tables print it.
func (c WANCell) Label() string { return variantLabel(c.Stack, c.Transport) }

// RunWAN sweeps the shared-bottleneck cluster across every axis. Cells
// come out in deterministic order; identical seeds give identical cells.
// Invalid stack/transport pairs (iSCSI over UDP) are skipped. A cell
// whose configuration collapses — a transport connection dies under
// sustained queue overflow before the workload completes — comes back
// with Collapsed set rather than aborting the sweep (its telemetry end
// mark carries collapsed=1 and no measurements): in a congestion study
// the collapse boundary is a finding.
func RunWAN(cfg WANConfig) ([]WANCell, error) {
	cfg.fill()
	cfg.pool = sweepPool(cfg.pool)
	var cells []WANCell
	for _, wl := range cfg.Workloads {
		for _, mix := range cfg.Mixes {
			for _, q := range cfg.Disciplines {
				for _, capacity := range cfg.Capacities {
					for _, v := range variants(cfg.Stacks, cfg.Transports, cfg.Conns) {
						for _, n := range cfg.Counts {
							cell, err := runWANCell(cfg, wl, mix, q, capacity, v, n)
							if err != nil {
								return nil, fmt.Errorf("wan %s/%s/%s/%d B/s/%v(%v)/%d: %w",
									wl, mix, q, capacity, v.stack, v.transport, n, err)
							}
							cells = append(cells, cell)
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// runWANCell builds one congestion-coupled cluster and measures one
// workload on it (the scaling sweep's drivers, over a shared bottleneck).
func runWANCell(cfg WANConfig, wl, mix string, q netqueue.Discipline,
	capacity int64, v variant, n int) (WANCell, error) {
	cell := WANCell{Workload: wl, Stack: v.stack, Transport: v.transport,
		Clients: n, Capacity: capacity, Discipline: q, Mix: mix}
	perClient, err := MixClients(mix, n)
	if err != nil {
		return WANCell{}, err
	}
	scfg := ScaleConfig{FileSize: cfg.FileSize, ChunkSize: wanChunkSize, Seed: cfg.Seed}
	err = runDriverCell(cellSpec{
		experiment: "wan",
		v:          v,
		clients:    n,
		tags: metrics.Tags{
			"workload": wl,
			"capacity": strconv.FormatInt(capacity, 10),
			"qdisc":    q.String(),
			"mix":      mix,
		},
		health:  cfg.Health,
		metrics: cfg.Metrics,
		cluster: testbed.ClusterConfig{
			Config: testbed.Config{
				// A client's volume holds its file twice over, 16384
				// blocks at least; the NFS export scales by count.
				DeviceBlocks: exportBlocks(max(16384, cfg.FileSize/4096*2), v.stack, n),
				Seed:         cfg.Seed,
				WindowBytes:  cfg.WindowBytes,
				Tracer:       cfg.Tracer,
				Pool:         cfg.pool,
			},
			Shared: &netqueue.Config{
				Bandwidth:  capacity,
				QueueBytes: cfg.QueueBytes,
				Discipline: q,
			},
			PerClient: perClient,
		},
	}, scfg, wl, func(cl *testbed.Cluster, drivers []func() (bool, error),
		aggBytes int64) (map[string]float64, error) {
		cl.Link.RearmDepth() // window-scoped peak backlog, setup excluded
		linkBefore := cl.Link.Stats()
		r, err := runDrivers(cl, drivers)
		if err != nil {
			return nil, err
		}
		link := cl.Link.Stats()
		cell.Elapsed = r.Elapsed
		cell.AggBytesPerSec = float64(aggBytes) / r.Elapsed.Seconds()
		cell.PerClientLatency = r.LatMean
		cell.StragglerLatency = r.LatMax
		cell.ServerCPU = float64(r.ServerBusy) / float64(r.Elapsed)
		cell.QueueDrops = link.Drops() - linkBefore.Drops()
		cell.HOLWait = link.HOLWait() - linkBefore.HOLWait()
		cell.MaxDepthBytes = cl.Link.DepthHighWater()
		return map[string]float64{
			"elapsed_ns":            float64(cell.Elapsed),
			"agg_bytes_per_sec":     cell.AggBytesPerSec,
			"per_client_latency_ns": float64(cell.PerClientLatency),
			"straggler_latency_ns":  float64(cell.StragglerLatency),
			"server_cpu":            cell.ServerCPU,
			"queue_drops":           float64(cell.QueueDrops),
			"hol_wait_ns":           float64(cell.HOLWait),
			"depth_max_bytes":       float64(cell.MaxDepthBytes),
		}, nil
	})
	if collapsed(err) {
		cell.Collapsed, err = true, nil
	}
	return cell, err
}

// RenderWAN prints the sweep: one block per (workload, mix, discipline,
// capacity) panel, stacks as row groups, client counts as columns.
func RenderWAN(w io.Writer, cells []WANCell) {
	type panel struct {
		wl, mix  string
		q        netqueue.Discipline
		capacity int64
	}
	cols := pivotByCount(cells, func(c WANCell) int { return c.Clients })
	g := groupCells(cells, func(c WANCell) (panel, string) {
		return panel{c.Workload, c.Mix, c.Discipline, c.Capacity}, c.Label()
	})
	// measured renders a cell's measurement, or what a collapsed cell
	// prints in its place.
	measured := func(collapsed string, f func(WANCell) string) func(WANCell) string {
		return func(c WANCell) string {
			if c.Collapsed {
				return collapsed
			}
			return f(c)
		}
	}
	for _, p := range g.keys {
		fmt.Fprintf(w, "WAN sweep: %s, mix=%s, qdisc=%s, pipe=%.1f MB/s, shared bottleneck\n",
			p.wl, p.mix, p.q, float64(p.capacity)/1e6)
		cols.header(w)
		for _, l := range g.labels {
			cs := g.at[p][l]
			if cs == nil {
				continue
			}
			fmt.Fprintf(w, "%-22s%s\n", l+" agg MB/s", cols.row(cs, measured("collapse",
				func(c WANCell) string { return fmt.Sprintf("%.1f", c.AggBytesPerSec/1e6) })))
			fmt.Fprintf(w, "%-22s%s\n", "  per-op latency", cols.row(cs, measured("-",
				func(c WANCell) string { return c.PerClientLatency.Round(time.Microsecond).String() })))
			fmt.Fprintf(w, "%-22s%s\n", "  straggler", cols.row(cs, measured("-",
				func(c WANCell) string { return c.StragglerLatency.Round(time.Microsecond).String() })))
			fmt.Fprintf(w, "%-22s%s\n", "  queue drops", cols.row(cs, measured("-",
				func(c WANCell) string { return fmt.Sprintf("%d", c.QueueDrops) })))
		}
		fmt.Fprintln(w)
	}
}
