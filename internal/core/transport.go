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

// Transport experiment: the mechanistic version of the Figure 6 WAN story.
// Every stack's wire traffic runs through the virtual-time TCP model (or
// the UDP datagram path for NFS), and the sweep crosses {loss rate x RTT x
// window x connection count}: NFS compares its two transports, iSCSI
// scales MC/S connection counts — the Kumar et al. experiment — and the
// window axis is the paper's Section 3.1 rmem/wmem knob.

// TransportWorkloads lists the supported transport-sweep workloads: the
// seqRand table, each read beside its write.
var TransportWorkloads = []string{seqRand[0].slug, seqRand[2].slug, seqRand[1].slug, seqRand[3].slug}

// TransportConfig parameterizes the sweep.
type TransportConfig struct {
	// Stacks restricts the sweep (default NFSv3 and iSCSI, the paper's
	// Figure 6 pair).
	Stacks []Stack
	// Workloads to run (default seq-read, seq-write).
	Workloads []string
	// RTTs to sweep (default 200 us LAN and 40 ms WAN).
	RTTs []time.Duration
	// LossRates to sweep (default 0 and 1%).
	LossRates []float64
	// Windows are per-connection TCP window caps in bytes (default 64 KB).
	Windows []int
	// Conns are the iSCSI MC/S connection counts (default 1, 2, 4).
	// NFS stacks ignore this axis and instead compare UDP vs TCP.
	Conns []int
	// FileSize per workload pass (default 2 MB).
	FileSize int64
	// ChunkSize is the per-syscall unit (default 4 KB).
	ChunkSize int
	// DeviceBlocks sizes the volume (default sized from FileSize).
	DeviceBlocks int64
	// Seed for loss injection and workload randomness.
	Seed int64
	// Metrics, when non-nil, receives per-cell telemetry tagged with the
	// sweep axes (see docs/METRICS.md).
	Metrics *metrics.Recorder
	// Tracer, when non-nil, records per-op span trees for every cell
	// (see docs/TRACING.md).
	Tracer *tracing.Tracer

	pool *blockdev.Pool // the cells' shared block pool; see sweepPool
}

func (c *TransportConfig) fill() {
	if len(c.Stacks) == 0 {
		c.Stacks = []Stack{NFSv3, ISCSI}
	}
	if len(c.Workloads) == 0 {
		c.Workloads = []string{"seq-read", "seq-write"}
	}
	if len(c.RTTs) == 0 {
		c.RTTs = []time.Duration{200 * time.Microsecond, 40 * time.Millisecond}
	}
	if len(c.LossRates) == 0 {
		c.LossRates = []float64{0, 0.01}
	}
	if len(c.Windows) == 0 {
		c.Windows = []int{64 << 10}
	}
	if len(c.Conns) == 0 {
		c.Conns = []int{1, 2, 4}
	}
	if c.FileSize == 0 {
		c.FileSize = 2 << 20
	}
	if c.ChunkSize == 0 {
		c.ChunkSize = 4096
	}
	if c.DeviceBlocks == 0 {
		c.DeviceBlocks = 16384
		if need := c.FileSize / 4096 * 4; need > c.DeviceBlocks {
			c.DeviceBlocks = need
		}
	}
}

// TransportCell is one (stack, transport, workload, rtt, loss, window)
// measurement.
type TransportCell struct {
	Stack     Stack
	Transport testbed.Transport
	Conns     int
	Workload  string
	RTT       time.Duration
	Loss      float64
	Window    int

	// Elapsed is the measured run (including drain); BytesPerSec the
	// resulting data throughput.
	Elapsed     time.Duration
	BytesPerSec float64
	// Messages counts protocol transactions; RPCRetrans RPC-layer
	// (datagram) retransmissions; TCPRetrans/TCPTimeouts the TCP-level
	// recovery activity.
	Messages    int64
	RPCRetrans  int64
	TCPRetrans  int64
	TCPTimeouts int64
}

// label names the variant the way the tables print it (nfs v3/udp,
// iscsi tcpx4, ...).
func (c TransportCell) label() string {
	if c.Stack == ISCSI {
		return fmt.Sprintf("%s tcpx%d", c.Stack, c.Conns)
	}
	return fmt.Sprintf("%s/%s", c.Stack, c.Transport)
}

// RunTransport sweeps every transport arrangement of every stack across
// {rtt x loss x window} and measures each workload. Cells are emitted in
// deterministic order; identical seeds give identical cells.
func RunTransport(cfg TransportConfig) ([]TransportCell, error) {
	cfg.fill()
	cfg.pool = sweepPool(cfg.pool)
	// NFS compares datagram UDP against stream TCP; iSCSI scales MC/S
	// connections.
	vs := variants(cfg.Stacks, []testbed.Transport{testbed.TransportUDP, testbed.TransportTCP}, cfg.Conns...)
	var cells []TransportCell
	for _, wl := range cfg.Workloads {
		for _, v := range vs {
			windows := cfg.Windows
			if v.transport == testbed.TransportUDP {
				// The window cap is a TCP knob; one UDP cell per {rtt x
				// loss} point, rendered with a blank window.
				windows = []int{0}
			}
			for _, window := range windows {
				for _, rtt := range cfg.RTTs {
					for _, loss := range cfg.LossRates {
						cell, err := RunTransportCell(cfg, TransportCell{Stack: v.stack, Transport: v.transport,
							Conns: v.conns, Workload: wl, RTT: rtt, Loss: loss, Window: window})
						if err != nil {
							return nil, fmt.Errorf("transport %s/%v(%v x%d)/rtt=%v/loss=%g: %w",
								wl, v.stack, v.transport, v.conns, rtt, loss, err)
						}
						cells = append(cells, cell)
					}
				}
			}
		}
	}
	return cells, nil
}

// RunTransportCell builds one testbed and measures one workload on it: c
// names the cell (every field above Elapsed) and comes back with its
// measurements filled in. It is one iteration of RunTransport, and the cell
// repro trace records; of cfg it reads the sizes, the seed and the sinks.
func RunTransportCell(cfg TransportConfig, c TransportCell) (TransportCell, error) {
	cfg.fill()
	w := seqRandIndex(c.Workload)
	if w < 0 {
		return c, fmt.Errorf("unknown transport workload %q", c.Workload)
	}
	tags := metrics.Tags{
		"workload": c.Workload,
		"rtt":      c.RTT.String(),
		"loss":     ftoa(c.Loss),
		"window":   itoa(c.Window),
		"conns":    itoa(c.Conns),
	}
	err := onBed("transport", cfg.Metrics, tags, testbed.Config{
		Kind:         c.Stack,
		DeviceBlocks: cfg.DeviceBlocks,
		RTT:          c.RTT,
		LossRate:     c.Loss,
		Seed:         cfg.Seed,
		Transport:    c.Transport,
		Conns:        c.Conns,
		WindowBytes:  c.Window,
		Tracer:       cfg.Tracer,
		Pool:         sweepPool(cfg.pool),
	}, func(tb *testbed.Testbed) error {
		src := workload.SeqRandConfig{FileSize: cfg.FileSize, ChunkSize: cfg.ChunkSize, Seed: cfg.Seed}
		res, err := seqRand[w].run(tb, src)
		if err != nil {
			return err
		}
		counters := tb.Counters()
		c.Elapsed, c.Messages = res.Elapsed, res.Messages
		c.BytesPerSec = float64(seqRand[w].bytes(src)) / res.Elapsed.Seconds()
		c.RPCRetrans, c.TCPRetrans, c.TCPTimeouts = counters.RPC.Retransmits, counters.TCP.Retransmits, counters.TCP.Timeouts
		tb.Cluster.Metrics().Point(tb.Clock.Now(), metrics.SubsysRun, nil, map[string]float64{"bytes_per_sec": c.BytesPerSec})
		return nil
	})
	return c, err
}

// RenderTransport prints the sweep grouped by workload: one row per
// (variant, window, rtt, loss) cell in sweep order.
func RenderTransport(w io.Writer, cells []TransportCell) {
	g := groupCells(cells, func(c TransportCell) (string, string) { return c.Workload, c.label() })
	for _, wl := range g.keys {
		fmt.Fprintf(w, "Transport sweep: %s (virtual-time TCP under every stack)\n", wl)
		fmt.Fprintf(w, "%-16s %-8s %-8s %-6s %10s %12s %8s %8s %8s\n",
			"variant", "window", "rtt", "loss", "MB/s", "elapsed", "msgs", "rpc-rt", "tcp-rt")
		g.rows(wl, func(_ string, c TransportCell) {
			window := "-"
			if c.Window > 0 {
				window = fmt.Sprintf("%dK", c.Window>>10)
			}
			fmt.Fprintf(w, "%-16s %-8s %-8s %-6s %10.2f %12s %8d %8d %8d\n",
				c.label(),
				window,
				c.RTT.String(),
				fmt.Sprintf("%.1f%%", c.Loss*100),
				c.BytesPerSec/1e6,
				c.Elapsed.Round(time.Millisecond).String(),
				c.Messages, c.RPCRetrans, c.TCPRetrans)
		})
		fmt.Fprintln(w)
	}
}
