package testbed

import (
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/ext3"
	"repro/internal/fleet"
	"repro/internal/health"
	"repro/internal/iscsi"
	"repro/internal/lockmgr"
	"repro/internal/metrics"
	"repro/internal/netqueue"
	"repro/internal/nfs"
	"repro/internal/scsi"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tracing"
)

// ClientNet overrides one client's wire characteristics: the per-client
// heterogeneity axis that makes WAN stragglers expressible. Zero fields
// inherit the cluster defaults.
type ClientNet struct {
	// RTT is this client's round-trip propagation delay.
	RTT time.Duration
	// LossRate is this client's frame loss probability.
	LossRate float64
}

// ClusterConfig parameterizes an assembly: N client machines driving one
// server over a shared Gigabit segment. The embedded Config carries
// everything the clients have in common.
type ClusterConfig struct {
	Config
	// Clients is the number of concurrent client machines (default 1).
	Clients int
	// Shared, when non-nil, multiplexes every client's traffic through
	// one capacity-limited bottleneck (see internal/netqueue): each
	// client gets its own simnet network — carrying its RTT and loss —
	// admitted through one shared drop-tail (or fair-queued) pipe, so
	// N-client saturation comes from the wire, not per-client pipeline
	// depth. Nil keeps today's independent-links model byte-identically.
	Shared *netqueue.Config
	// PerClient gives client i its own RTT/loss (stragglers). Entries
	// beyond it, and zero fields, inherit the cluster defaults. Setting
	// it switches the cluster to per-client networks even without a
	// Shared bottleneck, and tags each client's metric sources with its
	// rtt/loss so straggler attribution is a -by client query.
	PerClient []ClientNet
	// Background, when non-empty, adds fluid client cohorts: their
	// calibrated demand is solved to a fleet operating point
	// (internal/fleet) and injected as background load on the server CPU,
	// the array and the shared bottleneck link, so the Clients mechanistic
	// clients run against residual capacity. Fleet-level aggregates stream
	// as metrics.SubsysFleet counters.
	Background []fleet.Cohort
	// CapacityClients sizes the iSCSI storage array as if this many
	// clients attached (default Clients plus the Background population),
	// so a hybrid run's mechanistic LUNs see the seek distances a full
	// mechanistic fleet would. (The NFS export is sized by DeviceBlocks
	// directly; scale that instead.)
	CapacityClients int
	// TelemetryFanIn bounds per-client metric sources: above it, only a
	// stratified sample of clients per heterogeneity stratum registers
	// sources, tagged sampled/population/sample so summaries re-weight
	// (docs/METRICS.md). 0 means defaultTelemetryFanIn; negative disables
	// sampling and registers every client.
	TelemetryFanIn int
	// Health, when non-nil, attaches a virtual-time health monitor: the
	// cluster registers its per-station gauge sources on it (see
	// telemetry.go) and Run spawns its scrape loop alongside the drivers,
	// so gauge and alert events stream through Metrics in virtual time
	// (docs/HEALTH.md). Alert state is per-monitor, so give each
	// experiment cell its own. Nil is the inert state: no gauge sources,
	// no scrape process, byte-identical streams.
	Health *health.Monitor
	// Sharing, when non-nil, enables cross-client sharing: an NFS
	// cluster gets a server-side byte-range lock manager (and, with
	// Delegation, the v4 lease machinery); an iSCSI cluster gets one
	// extra raw LUN exported by every client's target under a shared
	// persistent-reservation table (see sharing.go). Nil keeps all
	// existing configurations byte-identical.
	Sharing *SharingConfig
}

// defaultTelemetryFanIn is the per-stratum client-source limit above which
// a cluster's telemetry switches to stratified sampling. It is comfortably
// above every mechanistic sweep in the paper (16 clients), so sampling
// only engages on fleet-scale runs.
const defaultTelemetryFanIn = 64

// fill applies the defaults of the embedded Config plus the client count.
func (c *ClusterConfig) fill() {
	c.Config.fill()
	if c.Clients <= 0 {
		c.Clients = 1
	}
}

// validate rejects unusable parameters.
func (c *ClusterConfig) validate() error {
	if err := c.Config.validate(); err != nil {
		return err
	}
	if len(c.PerClient) > c.Clients {
		return fmt.Errorf("testbed: %d PerClient entries for %d clients", len(c.PerClient), c.Clients)
	}
	for i, p := range c.PerClient {
		if p.RTT < 0 {
			return fmt.Errorf("testbed: client %d negative RTT", i)
		}
		if p.LossRate < 0 || p.LossRate >= 1 {
			return fmt.Errorf("testbed: client %d loss rate %g out of [0, 1)", i, p.LossRate)
		}
	}
	for _, co := range c.Background {
		if err := co.Validate(); err != nil {
			return err
		}
	}
	if c.Sharing != nil {
		if err := c.Sharing.validate(c.Kind); err != nil {
			return err
		}
	}
	if c.Shared != nil {
		return c.Shared.Validate()
	}
	return nil
}

// Cluster is N concurrent clients sharing one server: one network segment,
// one server CPU and one RAID-5 array. NFS clients mount the same export;
// iSCSI clients each own a LUN partition of the shared array. It is the
// one assembly: the paper's single-client testbed is a Cluster of one
// (see Testbed).
type Cluster struct {
	Kind Kind
	Cfg  ClusterConfig

	// Net is the shared segment in independent-links mode; nil when
	// per-client networks are in play (a Shared bottleneck or PerClient
	// heterogeneity) — use clientNetwork / Snap then.
	Net *simnet.Network
	// Link is the shared bottleneck every client's network admits
	// through (nil unless Cfg.Shared was set).
	Link *netqueue.Link
	// ServerCPU is the server's two 933 MHz processors folded into one
	// resource.
	ServerCPU *sim.CPU
	Clients   []*Client

	nets []*simnet.Network // one per client when heterogeneous; else len 1
	// vols are the filesystem volumes carved from the one shared array:
	// the NFS export, or one LUN per iSCSI client. Array-level state
	// (timing, counters) is common to all, so vols[0] speaks for it.
	vols []*blockdev.Local
	srv  *nfsServer // shared NFS server state (nil for iSCSI)

	// Cross-client sharing state (nil unless Cfg.Sharing was set).
	locks  *lockmgr.Manager     // NFS byte-range lock table (on the server)
	deleg  *lockmgr.Delegations // NFSv4 lease table (with Sharing.Delegation)
	rsv    *scsi.Reservations   // iSCSI persistent-reservation table
	shared *blockdev.Local      // iSCSI shared LUN (raw, no filesystem)

	fluid *fleet.Operating // solved background operating point (nil if none)

	rec    *metrics.Recorder
	health *health.Monitor // nil unless Cfg.Health was set
}

// clientNetCfg derives client i's network parameters from the shared
// config plus its PerClient override.
func (c *ClusterConfig) clientNetCfg(i int) Config {
	cc := c.Config
	// Decorrelate per-client loss RNGs (one shared network draws from a
	// single stream; N networks must not mirror each other).
	cc.Seed = c.Seed + int64(i+1)*7919
	if i < len(c.PerClient) {
		if p := c.PerClient[i]; p.RTT > 0 {
			cc.RTT = p.RTT
		}
		if p := c.PerClient[i]; p.LossRate > 0 {
			cc.LossRate = p.LossRate
		}
	}
	return cc
}

// NewCluster builds and mounts an N-client cluster. It is the only place
// volumes are formatted and protocol stacks are built.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg.fill()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cl := &Cluster{
		Kind:      cfg.Kind,
		Cfg:       cfg,
		ServerCPU: sim.NewCPU(1.87), // 2 x 933 MHz
		health:    cfg.Health,
	}
	if cfg.Shared != nil {
		cl.Link = netqueue.New(*cfg.Shared)
	}
	if cfg.Shared != nil || len(cfg.PerClient) > 0 {
		// Per-client networks: each carries its own RTT/loss; a shared
		// bottleneck (if any) couples their serialization.
		cl.nets = make([]*simnet.Network, cfg.Clients)
		for i := range cl.nets {
			n := cfg.clientNetCfg(i).network()
			if cl.Link != nil {
				n.AttachShared(cl.Link.Endpoint())
			}
			cl.nets[i] = n
		}
	} else {
		cl.Net = cfg.network()
		cl.nets = []*simnet.Network{cl.Net}
	}

	if cfg.Kind == ISCSI {
		capacity := cfg.CapacityClients
		if capacity == 0 {
			capacity = cfg.Clients
			for _, co := range cfg.Background {
				capacity += co.Clients
			}
		}
		nluns := cfg.Clients
		if cfg.Sharing != nil {
			// One extra raw LUN on the same array, exported by every
			// client's target and guarded by one reservation table.
			nluns++
			capacity++
		}
		cl.vols = blockdev.NewClusterArraySized(nluns, cfg.DeviceBlocks, capacity)
		if cfg.Sharing != nil {
			cl.shared = cl.vols[nluns-1]
			cl.vols = cl.vols[:cfg.Clients]
			cl.rsv = scsi.NewReservations()
		}
	} else {
		cl.vols = []*blockdev.Local{blockdev.NewTestbedArray(cfg.DeviceBlocks)}
	}
	if cl.shared != nil {
		cl.shared.Store().SetPool(cfg.Pool)
	}
	for i, v := range cl.vols {
		v.Store().SetPool(cfg.Pool)
		if _, err := ext3.Mkfs(0, v, ext3.Options{CommitInterval: cfg.CommitInterval}); err != nil {
			return nil, fmt.Errorf("testbed: mkfs volume %d: %w", i, err)
		}
	}
	if cfg.Tracer != nil {
		for _, n := range cl.nets {
			n.SetTracer(cfg.Tracer)
		}
		cl.ServerCPU.SetTracer(cfg.Tracer, tracing.LayerCPUServer)
		cl.Array().SetTracer(cfg.Tracer)
	}

	var serverReady time.Duration
	if cfg.Kind != ISCSI {
		cl.srv = &nfsServer{dev: cl.vols[0], cpu: cl.ServerCPU, cfg: cfg.Config}
		done, err := cl.srv.mount(0)
		if err != nil {
			return nil, err
		}
		serverReady = done
		if cfg.Sharing != nil {
			// The lock table lives on the protocol server, which
			// survives export restarts; a crash-restart resets it and
			// opens the grace window (see fault.go).
			cl.locks = lockmgr.NewManager(lockmgr.Config{GracePeriod: cfg.Sharing.GracePeriod})
			cl.srv.srv.Locks = cl.locks
			if cfg.Sharing.Delegation {
				cl.deleg = lockmgr.NewDelegations()
			}
		}
	}

	if len(cfg.Background) > 0 {
		if err := cl.applyFluid(); err != nil {
			return nil, err
		}
	}

	for i := 0; i < cfg.Clients; i++ {
		cpu := sim.NewCPU(1.0)
		if cfg.Tracer != nil {
			cpu.SetTracer(cfg.Tracer, tracing.LayerCPUClient)
		}
		h := hw{net: cl.clientNetwork(i), cpu: cpu, cfg: cfg.Config}
		var st stack
		if cfg.Kind == ISCSI {
			name := fmt.Sprintf("iqn.2004.repro:vol%d", i)
			tgt := iscsi.NewTarget(name, cl.vols[i], cl.ServerCPU)
			if cl.rsv != nil {
				tgt.SetShared(cl.shared, cl.rsv, i)
			}
			st = &iscsiStack{hw: h, target: tgt}
		} else {
			ns := &nfsStack{kind: cfg.Kind, hw: h, srv: cl.srv}
			if cfg.Sharing != nil {
				ns.sharing = true
				ns.shareID = i
				ns.deleg = cl.deleg
			}
			st = ns
		}
		c := &Client{ID: i, Clock: sim.NewClock(), CPU: cpu, stack: st, Tracer: cfg.Tracer}
		// Clients boot once the server is up; mounts then contend for
		// the shared segment and server CPU in client order.
		c.Clock.AdvanceTo(serverReady)
		if err := c.mount(); err != nil {
			return nil, fmt.Errorf("testbed: client %d: %w", i, err)
		}
		cl.Clients = append(cl.Clients, c)
	}
	cl.rec = cfg.Metrics.With(metrics.Tags{"transport": cfg.Transport.String()})
	cl.instrument(cfg.Health)
	return cl, nil
}

// Close powers the whole assembly off and gives the block memory it still
// holds back to Cfg.Pool (what its caches dropped while it ran went back
// then): every client stack and the NFS server lose their caches as in a
// crash, retired and resident blocks alike, and the volumes release their
// blocks. It consumes no virtual time, emits nothing and leaves every
// filesystem unmounted, so any later syscall fails with an error rather than
// reaching recycled memory. It is the one
// teardown; a harness calls it when it is done reading the cell's results.
// Forgetting it (or having no pool) costs garbage, never correctness, and
// calling it twice is harmless.
func (cl *Cluster) Close() {
	for _, c := range cl.Clients {
		c.stack.shutdown()
	}
	if cl.srv != nil {
		cl.srv.fs.Crash()
	}
	for _, v := range cl.vols {
		v.Store().Release()
	}
	if cl.shared != nil {
		cl.shared.Store().Release()
	}
}

// applyFluid solves the background cohorts to their operating point and
// injects the background share of each shared station's utilization into
// the mechanistic resources.
func (cl *Cluster) applyFluid() error {
	// The wire station is whichever pipe the clients actually share: the
	// netqueue bottleneck when configured, else the common segment in
	// homogeneous (single-network) mode. Heterogeneous per-client wires
	// without a bottleneck are private — no shared wire station.
	var linkBps int64
	if cl.Link != nil {
		linkBps = cl.Link.Config().Bandwidth
	} else if cl.Net != nil {
		linkBps = cl.Net.Bandwidth()
	}
	op, err := fleet.Solve(cl.Cfg.Clients, cl.Cfg.Background, linkBps)
	if err != nil {
		return err
	}
	if err := cl.ServerCPU.SetBackground(op.BackgroundUtil[fleet.StationCPU]); err != nil {
		return err
	}
	if err := cl.Array().SetBackground(op.BackgroundUtil[fleet.StationDisk]); err != nil {
		return err
	}
	switch {
	case cl.Link != nil:
		up := int64(op.BackgroundUtil[fleet.StationUp] * float64(linkBps))
		down := int64(op.BackgroundUtil[fleet.StationDown] * float64(linkBps))
		err = cl.Link.SetBackground(up, down)
	case cl.Net != nil:
		err = cl.Net.SetBackground(op.BackgroundUtil[fleet.StationUp], op.BackgroundUtil[fleet.StationDown])
	}
	if err != nil {
		return err
	}
	cl.fluid = &op
	return nil
}

// Fluid exposes the solved background operating point (nil when the
// cluster is purely mechanistic).
func (cl *Cluster) Fluid() *fleet.Operating { return cl.fluid }

// fleetCounters derives the fluid cohorts' cumulative activity at the
// cluster horizon: the closed-form counterpart of a mechanistic client's
// protocol counters. The horizon is monotone, so so are these.
func (cl *Cluster) fleetCounters() map[string]int64 {
	op := cl.fluid
	secs := cl.Horizon().Seconds()
	return map[string]int64{
		"ops":        int64(op.BackgroundX * secs),
		"messages":   int64(op.BackgroundX * op.Demand.MsgsPerOp * secs),
		"data_bytes": int64(op.BackgroundX * op.Demand.DataBytesPerOp * secs),
	}
}

// clientNetwork returns client i's network (the shared segment when the
// cluster runs in independent-links mode).
func (cl *Cluster) clientNetwork(i int) *simnet.Network {
	if len(cl.nets) == 1 {
		return cl.nets[0]
	}
	return cl.nets[i]
}

// Metrics exposes the cluster's recorder (nil when un-instrumented).
func (cl *Cluster) Metrics() *metrics.Recorder { return cl.rec }

// Delegations exposes the v4 lease table (nil unless Sharing.Delegation
// is enabled on an NFSv4 cluster). The replay oracle test resets it at
// window open and reads its counters at close.
func (cl *Cluster) Delegations() *lockmgr.Delegations { return cl.deleg }

// NFSServer exposes the export's protocol server (nil for iSCSI
// clusters), for experiments that change how it serves.
func (cl *Cluster) NFSServer() *nfs.Server {
	if cl.srv == nil {
		return nil
	}
	return cl.srv.srv
}

// ServerRequests reports the cumulative NFS server request count (0 for
// iSCSI clusters): the message-side counter the delegation oracle
// differences across a measurement window.
func (cl *Cluster) ServerRequests() int64 {
	if cl.srv == nil {
		return 0
	}
	return cl.srv.srv.Counters()["requests"]
}

// EmitSample streams every registered counter's delta since the previous
// sample, stamped at the cluster horizon.
func (cl *Cluster) EmitSample() { cl.rec.Sample(cl.Horizon()) }

// BeginWindow opens one measurement window in the telemetry stream:
// whatever the setup phase moved is flushed into its own samples, then a
// begin mark (carrying extra) separates it from measured traffic. With
// EndWindow it is the one window protocol every harness shares, stamped
// at the cluster horizon.
func (cl *Cluster) BeginWindow(extra metrics.Tags) {
	cl.EmitSample()
	cl.rec.Mark(cl.Horizon(), phaseTags("begin", extra))
}

// EndWindow closes the window: measured deltas are sampled, the derived
// results (if any) land as one point event tagged extra, and the end mark
// delimits the cell.
func (cl *Cluster) EndWindow(extra metrics.Tags, results map[string]float64) {
	cl.EmitSample()
	if len(results) > 0 {
		cl.rec.Point(cl.Horizon(), metrics.SubsysRun, extra, results)
	}
	cl.rec.Mark(cl.Horizon(), phaseTags("end", extra))
}

// phaseTags overlays a phase tag on a window's extra tags.
func phaseTags(phase string, extra metrics.Tags) metrics.Tags {
	t := metrics.Tags{"phase": phase}
	for k, v := range extra {
		t[k] = v
	}
	return t
}

// Run interleaves one step function per client (index-aligned with
// Clients) in virtual-time order until every driver finishes. Each step
// issues work at its client's clock and advances it; the scheduler always
// picks the earliest clock, so shared-resource contention is resolved
// deterministically.
func (cl *Cluster) Run(drivers []func() (more bool, err error)) error {
	if len(drivers) != len(cl.Clients) {
		return fmt.Errorf("testbed: %d drivers for %d clients", len(drivers), len(cl.Clients))
	}
	s := sim.NewScheduler()
	// The health scraper (if any) goes first so that on clock ties a
	// scrape observes the instant before tied client work starts. It
	// retires on its own once the drivers finish.
	cl.health.Spawn(s, cl.Horizon())
	for i, d := range drivers {
		s.Spawn(cl.Clients[i].Clock, d)
	}
	return s.Run()
}

// Horizon reports the latest client clock. It iterates the clients
// directly — no per-call clock-slice allocation, since telemetry sampling
// calls this on every emitted event batch.
func (cl *Cluster) Horizon() time.Duration {
	var h time.Duration
	for _, c := range cl.Clients {
		if t := c.Clock.Now(); t > h {
			h = t
		}
	}
	return h
}

// Align advances every client clock to the cluster horizon (the barrier at
// which a cluster-wide measurement window closes) and returns that time.
func (cl *Cluster) Align() time.Duration {
	h := cl.Horizon()
	for _, c := range cl.Clients {
		c.Clock.AdvanceTo(h)
	}
	return h
}

// Drain flushes every client to stable storage and aligns all clocks past
// all background work.
func (cl *Cluster) Drain() error {
	for _, c := range cl.Clients {
		if err := c.Drain(); err != nil {
			return err
		}
	}
	cl.Align()
	return nil
}

// ColdCache empties every cache in the cluster, the protocol the paper
// uses before each cold-cache measurement (Section 4.1): all clients
// drain, the NFS server (if any) restarts exactly once, and every client
// drops its caches and remounts. The quiesced counters are flushed into a
// sample before any protocol client is rebuilt, so the stream closes a
// window at the quiesced instant; the stacks carry the rebuilt clients'
// counters forward (their *Base folds), so no counter falls.
func (cl *Cluster) ColdCache() error {
	if err := cl.Drain(); err != nil {
		return err
	}
	cl.EmitSample()
	// Flush a pre-rebuild gauge sample too: the scrape grid would
	// otherwise skip the quiesced instant, and the utilization closures
	// should close their windows on the old instances before the
	// protocol clients are torn down (the gauge analogue of the counter
	// flush above).
	now := cl.Horizon()
	cl.health.Scrape(now)
	if cl.srv != nil {
		done, err := cl.srv.restart(now)
		if err != nil {
			return err
		}
		now = done
	}
	for _, c := range cl.Clients {
		c.Clock.AdvanceTo(now)
		done, err := c.stack.ColdCache(c.Clock.Now())
		if err != nil {
			return err
		}
		c.Clock.AdvanceTo(done)
		c.syncFS()
	}
	cl.Align()
	return nil
}

// Snap captures cluster-wide counters: network traffic summed over every
// client link, shared array, server CPU, and the sum of client CPU busy
// time. Time is the cluster horizon. RPC aggregates every NFS client's
// SunRPC counters.
func (cl *Cluster) Snap() Snapshot {
	s := Snapshot{
		Disk:       cl.vols[0].Stats(),
		ServerBusy: cl.ServerCPU.Busy(),
		Time:       cl.Horizon(),
	}
	for _, n := range cl.nets {
		s.Net.Add(n.Stats())
	}
	for _, c := range cl.Clients {
		s.ClientBusy += c.CPU.Busy()
		s.RPC.Add(c.stack.Counters().RPC)
	}
	return s
}

// Since computes the measurement window from a prior cluster snapshot.
func (cl *Cluster) Since(prev Snapshot) Delta { return delta(prev, cl.Snap()) }
