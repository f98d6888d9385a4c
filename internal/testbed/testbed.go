// Package testbed assembles the paper's two experimental configurations
// (Figure 2): a client driving an NFS v2/v3/v4 server, and a client whose
// local ext3 filesystem sits on an iSCSI volume. Both share the same
// simulated hardware: a Gigabit Ethernet link, a 4+p RAID-5 array of 10K
// RPM drives, a dual-CPU server and a uniprocessor client.
//
// There is one assembly: Cluster (cluster.go) builds N client machines
// around one server, and the paper's testbed is a one-client cluster.
// Testbed (this file) is that cluster seen through its only client, so
// N = 1 runs exactly the code N = 16 does. The protocol-specific plumbing
// lives behind the package's stack interface (stack.go); the per-client
// machine and syscall surface is Client (client.go).
//
// The cluster also provides the paper's measurement controls: cold-cache
// emulation (unmount/remount plus server restart), warm-cache gaps, drain
// points, delta-snapshots of every counter, and the begin/end window
// protocol of the telemetry stream.
package testbed

import (
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/tcpsim"
	"repro/internal/tracing"
)

// Kind selects the storage stack.
type Kind int

// Stacks under comparison.
const (
	NFSv2 Kind = iota
	NFSv3
	NFSv4
	ISCSI
)

// String names the stack the way the paper's tables do.
func (k Kind) String() string {
	switch k {
	case NFSv2:
		return "NFS v2"
	case NFSv3:
		return "NFS v3"
	case NFSv4:
		return "NFS v4"
	default:
		return "iSCSI"
	}
}

// Tag returns the kind's metrics tag value ("nfsv2".."nfsv4", "iscsi"):
// the stack vocabulary documented in docs/METRICS.md.
func (k Kind) Tag() string {
	switch k {
	case NFSv2:
		return "nfsv2"
	case NFSv3:
		return "nfsv3"
	case NFSv4:
		return "nfsv4"
	default:
		return "iscsi"
	}
}

// AllKinds lists the four stacks in the paper's table order.
var AllKinds = []Kind{NFSv2, NFSv3, NFSv4, ISCSI}

// Transport selects the wire model protocol bytes ride on.
type Transport int

// Transport modes.
const (
	// TransportFluid is the original model: every message is one lossy
	// datagram charged serialization plus half-RTT propagation.
	TransportFluid Transport = iota
	// TransportUDP forces datagram RPC with client-side timeouts for
	// every NFS version (the paper's Linux client ran v3 over UDP).
	// iSCSI rejects it: the protocol requires TCP.
	TransportUDP
	// TransportTCP runs protocol bytes through tcpsim virtual-time TCP
	// connections: slow start, window caps, delayed ACKs and RTO-driven
	// retransmission replace the fluid charges.
	TransportTCP
)

// String returns the transport's metrics tag value ("fluid", "udp",
// "tcp"), the transport vocabulary documented in docs/METRICS.md.
func (t Transport) String() string {
	switch t {
	case TransportUDP:
		return "udp"
	case TransportTCP:
		return "tcp"
	default:
		return "fluid"
	}
}

// Config parameterizes what every client of an assembly shares: the
// stack under test, the volume, the wire and the caches. New takes it
// alone (one client); ClusterConfig embeds it and adds the multi-client
// axes.
type Config struct {
	Kind Kind
	// DeviceBlocks sizes each client's iSCSI LUN, or the (shared) NFS
	// export, in 4 KB blocks (default 524288 = 2 GB).
	DeviceBlocks int64
	// RTT overrides the LAN round-trip time (default ~200 us; the
	// latency sweep raises it).
	RTT time.Duration
	// CommitInterval overrides ext3's journal commit interval (5 s).
	CommitInterval time.Duration
	// NoAtime disables access-time updates (ablation).
	NoAtime bool
	// ClientCacheBlocks bounds the client cache (default 131072 = 512 MB,
	// the testbed client's RAM).
	ClientCacheBlocks int
	// ServerCacheBlocks bounds the server cache (default 262144 = 1 GB).
	ServerCacheBlocks int
	// Seed for loss injection and workloads.
	Seed int64
	// LossRate injects frame loss on every client's path (failure and WAN
	// testing; per-client overrides via ClusterConfig.PerClient).
	LossRate float64
	// Transport selects the wire model (default TransportFluid).
	Transport Transport
	// Conns is the iSCSI MC/S connection count under TransportTCP
	// (default 1; NFS always uses a single connection).
	Conns int
	// WindowBytes caps each TCP connection's window — the rmem/wmem
	// tuning knob from Section 3.1 (default 64 KB).
	WindowBytes int
	// Metrics, when non-nil, receives the assembly's telemetry: shared
	// hardware, server and per-client protocol sources are registered on
	// it at construction and EmitSample streams the deltas (see
	// docs/METRICS.md). Events are additionally tagged with the wire
	// transport.
	Metrics *metrics.Recorder
	// Tracer, when non-nil, threads virtual-time span tracing through
	// every layer: syscall roots (carrying the issuing client's id), cache
	// decisions, RPC/iSCSI exchanges, wire frames, CPU service and disk
	// phases (see docs/TRACING.md). The scheduler runs one client's
	// syscall to completion per step, so one tracer serves all clients.
	Tracer *tracing.Tracer
	// Pool, when non-nil, is the free list of 4 KB blocks the assembly's
	// block owners share: the volume Stores, every ext3 buffer cache and
	// every NFS client page cache take blocks from it, and give them back
	// where they drop them (eviction, a dropped file, unmount, crash, cold
	// cache) and in Cluster.Close. A sweep passes one pool to the cells it
	// builds one after another, so a cell starts on the previous cell's
	// blocks. Nil is inert: everything allocates from the heap and nothing
	// is recycled, as it always has been.
	Pool *blockdev.Pool
}

func (c *Config) fill() {
	if c.DeviceBlocks == 0 {
		c.DeviceBlocks = 524288
	}
	if c.RTT == 0 {
		c.RTT = 200 * time.Microsecond
	}
	if c.CommitInterval == 0 {
		c.CommitInterval = 5 * time.Second
	}
	if c.ClientCacheBlocks == 0 {
		c.ClientCacheBlocks = 131072
	}
	if c.ServerCacheBlocks == 0 {
		c.ServerCacheBlocks = 262144
	}
	if c.Conns == 0 {
		c.Conns = 1
	}
	if c.WindowBytes == 0 {
		c.WindowBytes = 64 << 10
	}
}

// validate rejects transport combinations no real deployment has.
func (c Config) validate() error {
	if c.Kind == ISCSI && c.Transport == TransportUDP {
		return fmt.Errorf("testbed: iSCSI requires TCP (no UDP transport exists)")
	}
	if c.Conns > 1 && (c.Transport != TransportTCP || c.Kind != ISCSI) {
		return fmt.Errorf("testbed: multiple connections (MC/S) require Kind=ISCSI and TransportTCP")
	}
	return nil
}

// tcpConfig builds the per-connection TCP parameters. Nagle is off: the
// Linux NFS client and every serious iSCSI initiator set TCP_NODELAY so a
// sub-MSS request or response tail is not held hostage to the delayed-ACK
// timer (RFC 3720 recommends it explicitly).
func (c Config) tcpConfig() tcpsim.Config {
	return tcpsim.Config{WindowBytes: c.WindowBytes, DisableNagle: true}
}

// network builds the simulated LAN for a config.
func (c Config) network() *simnet.Network {
	return simnet.New(simnet.Config{
		RTT:              c.RTT,
		Bandwidth:        117 << 20,
		PerFrameOverhead: 66,
		LossRate:         c.LossRate,
		Seed:             c.Seed,
	})
}

// Testbed is the paper's setup (Figure 2): a one-client Cluster, viewed
// through its only client. The embedded Client carries the syscall
// surface the single-client workloads drive; everything else — assembly,
// instrumentation, the measurement controls — is the cluster's, and the
// methods here only delegate. Tear it down with Cluster.Close: Testbed has no
// Close of its own, because the embedded Client's Close(f) is the close(2)
// syscall the workloads call on it.
type Testbed struct {
	*Client
	// Cluster is the assembly this testbed is a view of.
	Cluster *Cluster
	Kind    Kind
}

// New builds and mounts a testbed: NewCluster with one client.
func New(cfg Config) (*Testbed, error) {
	cl, err := NewCluster(ClusterConfig{Config: cfg, Clients: 1})
	if err != nil {
		return nil, err
	}
	return &Testbed{Client: cl.Clients[0], Cluster: cl, Kind: cl.Kind}, nil
}

// EmitSample streams every registered counter's delta since the previous
// sample: one closed measurement window in the telemetry stream.
func (tb *Testbed) EmitSample() { tb.Cluster.EmitSample() }

// Drain brings the system to quiescence: all dirty client state flushed
// and durable at the server, the virtual clock advanced past all
// background work. This is the measurement boundary for the paper's
// message counts.
func (tb *Testbed) Drain() error { return tb.Cluster.Drain() }

// ColdCache empties every cache: the client filesystem is unmounted and
// remounted and the server restarted, the protocol the paper uses before
// each cold-cache measurement (Section 4.1).
func (tb *Testbed) ColdCache() error { return tb.Cluster.ColdCache() }

// Snap returns the current counters.
func (tb *Testbed) Snap() Snapshot { return tb.Cluster.Snap() }

// Since computes the measurement window from a prior snapshot.
func (tb *Testbed) Since(prev Snapshot) Delta { return tb.Cluster.Since(prev) }

// Snapshot captures every counter for delta measurement.
type Snapshot struct {
	Net                    metrics.NetStats
	Disk                   metrics.DiskStats
	RPC                    sunrpc.Stats
	ClientBusy, ServerBusy time.Duration
	Time                   time.Duration
}

// Delta is the difference between two snapshots: one measurement window.
type Delta struct {
	Messages    int64
	Frames      int64
	Bytes       int64
	Retransmits int64
	DiskOps     int64
	Elapsed     time.Duration
	ClientBusy  time.Duration
	ServerBusy  time.Duration
}

// delta subtracts two snapshots.
func delta(prev, cur Snapshot) Delta {
	n := cur.Net.Sub(prev.Net)
	d := cur.Disk.Sub(prev.Disk)
	return Delta{
		Messages:    n.Messages,
		Frames:      n.Frames,
		Bytes:       n.Bytes(),
		Retransmits: n.Retransmits,
		DiskOps:     d.Ops(),
		Elapsed:     cur.Time - prev.Time,
		ClientBusy:  cur.ClientBusy - prev.ClientBusy,
		ServerBusy:  cur.ServerBusy - prev.ServerBusy,
	}
}
