package testbed

import (
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/ext3"
	"repro/internal/iscsi"
	"repro/internal/lockmgr"
	"repro/internal/nfs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/tcpsim"
	"repro/internal/vfs"
)

// stack is the protocol-specific half of one client: the client-visible
// filesystem plus the control operations a harness needs around it. Both
// the NFS path (v2/v3/v4 over SunRPC) and the iSCSI path (local ext3 on a
// remote block device) implement it, and nothing outside the package sees
// either: the cluster assembles, measures and instruments stacks through
// these methods, and the few hooks that need one protocol's parts (the
// shared object, server crash and client recovery) use the concrete stack.
//
// All methods take and return virtual times; the caller owns the clock.
type stack interface {
	// Kind identifies the protocol variant.
	Kind() Kind
	// FS is the client-visible filesystem. It changes identity across
	// ColdCache for stacks whose cold protocol is a remount.
	FS() vfs.FileSystem
	// Mount brings the stack up starting at now and returns completion.
	Mount(now time.Duration) (time.Duration, error)
	// Drain flushes all dirty client state to stable server storage and
	// returns the quiescence time (the paper's measurement boundary).
	Drain(now time.Duration) (time.Duration, error)
	// ColdCache empties every cache the client controls and remounts
	// against the running server: the client half of Section 4.1's
	// protocol. The server half (one export restart, however many
	// clients) belongs to the Cluster, which owns the server.
	ColdCache(now time.Duration) (time.Duration, error)
	// Counters reports protocol-level statistics beyond the shared
	// network/disk/CPU counters, cumulative across every rebuild.
	Counters() StackCounters

	// shutdown powers the client off without I/O: caches are dropped (their
	// blocks go back to the pool) and the filesystem is left unmounted, so
	// every later syscall fails. Cluster.Close calls it.
	shutdown()
	// crash powers the client off the way a fault does (Cluster.CrashClient):
	// volatile state vanishes, durable state stays for the recovery remount.
	crash()
	// damaged reports whether a fault left the stack needing a remount
	// (Cluster.RecoverClient).
	damaged() bool

	// stations lists what the stack contributes per client to the metrics
	// stream and to a health monitor, in registration order (telemetry.go).
	stations() []station
}

// StackCounters are the protocol-level statistics a stack exposes.
type StackCounters struct {
	// RPC is populated for NFS stacks (SunRPC call/retransmit counts).
	RPC sunrpc.Stats
	// TCP aggregates tcpsim connection counters for stacks running over
	// TransportTCP (zero under the fluid and UDP models).
	TCP tcpsim.Stats
}

// hw bundles the per-client hardware a stack is built against.
type hw struct {
	net *simnet.Network
	cpu *sim.CPU // client CPU
	cfg Config
}

// fsOpts returns the ext3 mount options for a filesystem whose VFS, FS
// and block layers charge cpu the given per-op and per-block demand.
func (c Config) fsOpts(cpu *sim.CPU, cacheBlocks int, perOp, perBlock time.Duration) ext3.Options {
	return ext3.Options{
		CommitInterval: c.CommitInterval,
		NoAtime:        c.NoAtime,
		CacheBlocks:    cacheBlocks,
		CPU:            &ext3.CPUConfig{Run: cpu.Run, PerOp: perOp, PerBlock: perBlock},
		Tracer:         c.Tracer,
		Pool:           c.Pool,
	}
}

// clientFSOpts returns the ext3 options for an iSCSI client mount: the
// filesystem runs on the *client* CPU.
func (h hw) clientFSOpts() ext3.Options {
	return h.cfg.fsOpts(h.cpu, h.cfg.ClientCacheBlocks, 30*time.Microsecond, 5*time.Microsecond)
}

// ---- NFS ----

// nfsServer is the server half every NFS stack of a cluster shares: the
// export device, the server ext3 and the protocol server, all charging one
// server CPU. fsBase carries the counters of export filesystems a restart
// has retired, keeping the cumulative counters monotonic for telemetry.
type nfsServer struct {
	dev *blockdev.Local
	cpu *sim.CPU
	cfg Config

	fs     *ext3.FS
	srv    *nfs.Server
	fsBase map[string]int64
}

// serverFSOpts returns the ext3 options for the server's local mount.
func (s *nfsServer) serverFSOpts() ext3.Options {
	return s.cfg.fsOpts(s.cpu, s.cfg.ServerCacheBlocks, 25*time.Microsecond, 4*time.Microsecond)
}

// mount brings the export up (first boot or after restart).
func (s *nfsServer) mount(now time.Duration) (time.Duration, error) {
	if s.fs != nil {
		s.fsBase = addCounterMap(s.fsBase, s.fs.Counters())
	}
	fs, done, err := ext3.Mount(now, s.dev, s.serverFSOpts())
	if err != nil {
		return now, fmt.Errorf("testbed: server mount: %w", err)
	}
	s.fs = fs
	if s.srv == nil {
		s.srv = nfs.NewServer(fs, s.cpu)
	} else {
		s.srv.Attach(fs)
	}
	return done, nil
}

// restart unmounts and remounts the export: the paper's "server restart"
// cold-cache step. Client mounts survive (NFS is stateless enough).
func (s *nfsServer) restart(now time.Duration) (time.Duration, error) {
	done, err := s.fs.Unmount(now)
	if err != nil {
		return now, err
	}
	return s.mount(done)
}

// quiesce syncs fs, its background commits included, and returns the time
// everything it holds is on stable storage.
func quiesce(fs *ext3.FS, now time.Duration) (time.Duration, error) {
	done, err := fs.Sync(now)
	if err != nil {
		return now, err
	}
	return max(done, fs.AsyncHorizon()), nil
}

// nfsStack is one client's NFS mount of a (possibly shared) server export.
// rpcBase/tcpBase carry the counters of protocol clients this stack has
// already retired (remounts rebuild them), keeping the stack's cumulative
// counters monotonic for the telemetry stream.
type nfsStack struct {
	kind    Kind
	hw      hw
	srv     *nfsServer
	rpc     *sunrpc.Client
	conn    *tcpsim.Conn // non-nil under TransportTCP
	client  *nfs.Client
	rpcBase sunrpc.Stats
	tcpBase tcpsim.Stats

	// Cross-client sharing identity (cluster-assigned, see sharing.go):
	// Mount re-applies it to every rebuilt protocol client so held locks
	// and the lease fast path survive remounts.
	sharing bool
	shareID int
	deleg   *lockmgr.Delegations
}

func (st *nfsStack) Kind() Kind         { return st.kind }
func (st *nfsStack) FS() vfs.FileSystem { return st.client }
func (st *nfsStack) Counters() StackCounters {
	c := StackCounters{RPC: st.rpcBase, TCP: st.tcpBase}
	if st.rpc != nil {
		c.RPC.Add(st.rpc.Stats())
	}
	if st.conn != nil {
		c.TCP.Add(st.conn.Stats())
	}
	return c
}

func (st *nfsStack) Mount(now time.Duration) (time.Duration, error) {
	transport := sunrpc.TCP
	ver := nfs.V3
	switch st.kind {
	case NFSv2:
		transport, ver = sunrpc.UDP, nfs.V2
	case NFSv4:
		ver = nfs.V4
	}
	// The transport knob overrides the version's historical default: the
	// paper's client ran v3 over UDP, and the Figure 6 counterfactual
	// runs it over real TCP.
	switch st.hw.cfg.Transport {
	case TransportUDP:
		transport = sunrpc.UDP
	case TransportTCP:
		transport = sunrpc.TCP
	}
	if st.rpc != nil {
		st.rpcBase.Add(st.rpc.Stats())
	}
	st.rpc = sunrpc.NewClient(st.hw.net, transport)
	st.rpc.SetTracer(st.hw.cfg.Tracer)
	if st.hw.cfg.Transport == TransportTCP {
		if st.conn == nil || !st.conn.Established() {
			if st.conn != nil {
				st.tcpBase.Add(st.conn.Stats())
			}
			st.conn = tcpsim.NewConn(st.hw.net, st.hw.cfg.tcpConfig())
			done, err := st.conn.Connect(now)
			if err != nil {
				return now, fmt.Errorf("testbed: nfs tcp connect: %w", err)
			}
			now = done
		}
		st.rpc.SetConn(st.conn)
	}
	old := st.client
	st.client = nfs.NewClient(ver, st.rpc, st.srv.srv, st.hw.cpu)
	st.client.SetTracer(st.hw.cfg.Tracer)
	st.client.SetCacheCapacity(st.hw.cfg.ClientCacheBlocks)
	st.client.SetPool(st.hw.cfg.Pool)
	if st.sharing {
		st.client.SetSharing(st.shareID, st.deleg)
		st.client.AdoptLocks(old)
	}
	done, err := st.client.Mount(now)
	if err != nil {
		return now, fmt.Errorf("testbed: nfs mount: %w", err)
	}
	return done, nil
}

func (st *nfsStack) Drain(now time.Duration) (time.Duration, error) {
	done, err := st.client.Sync(now)
	if err != nil {
		return now, err
	}
	return quiesce(st.srv.fs, done)
}

func (st *nfsStack) ColdCache(now time.Duration) (time.Duration, error) {
	st.client.DropCaches()
	return st.client.Mount(now)
}

func (st *nfsStack) shutdown() { st.client.Abort() }

// crash loses the caches and the connection; the server keeps serving
// everyone else.
func (st *nfsStack) crash() {
	st.client.DropCaches()
	if st.conn != nil {
		st.conn.Break()
	}
}

// damaged: the TCP connection died.
func (st *nfsStack) damaged() bool { return st.conn != nil && !st.conn.Established() }

// ---- iSCSI ----

// iscsiStack is one client's iSCSI session: an initiator (over the fluid
// wire, or an MC/S session under TransportTCP) logged into a target LUN,
// with the client's own ext3 mounted on the remote volume. The *Base fields carry the counters of
// endpoints and filesystems this stack has already retired (remounts
// rebuild them), keeping the cumulative counters monotonic for telemetry.
type iscsiStack struct {
	hw       hw
	target   *iscsi.Target
	endpoint *iscsi.Initiator
	fs       *ext3.FS
	epBase   map[string]int64
	fsBase   map[string]int64
	tcpBase  tcpsim.Stats
}

func (st *iscsiStack) Kind() Kind         { return ISCSI }
func (st *iscsiStack) FS() vfs.FileSystem { return st.fs }
func (st *iscsiStack) Counters() StackCounters {
	c := StackCounters{TCP: st.tcpBase}
	c.TCP.Add(st.endpoint.Stats())
	return c
}

func (st *iscsiStack) shutdown() { st.fs.Crash() }

// crash: the client ext3 crashes outright, its journal left dirty on the
// LUN for the reboot remount to replay.
func (st *iscsiStack) crash() { st.fs.Crash() }

// damaged: the filesystem crashed, the session's connections all died,
// or the target forgot the login (a target crash).
func (st *iscsiStack) damaged() bool {
	return !st.fs.Mounted() || !st.target.LoggedIn() || st.endpoint.Broken()
}

// endpointCounters exports the cumulative iSCSI command counters across
// every endpoint this stack has had.
func (st *iscsiStack) endpointCounters() map[string]int64 {
	return addCounterMap(st.endpoint.Counters(), st.epBase)
}

// fsCounters exports the cumulative client-ext3 counters across remounts.
func (st *iscsiStack) fsCounters() map[string]int64 {
	return addCounterMap(st.fs.Counters(), st.fsBase)
}

func (st *iscsiStack) Mount(now time.Duration) (time.Duration, error) {
	if st.endpoint != nil {
		st.epBase = addCounterMap(st.epBase, st.endpoint.Counters())
		st.tcpBase.Add(st.endpoint.Stats())
	}
	if st.hw.cfg.Transport == TransportTCP {
		st.endpoint = iscsi.NewSession(st.hw.net, st.target, st.hw.cpu,
			st.hw.cfg.Conns, st.hw.cfg.tcpConfig())
	} else {
		st.endpoint = iscsi.NewInitiator(st.hw.net, st.target, st.hw.cpu)
	}
	st.endpoint.SetTracer(st.hw.cfg.Tracer)
	done, err := st.endpoint.Login(now)
	if err != nil {
		return now, fmt.Errorf("testbed: iscsi login: %w", err)
	}
	if st.fs != nil {
		st.fsBase = addCounterMap(st.fsBase, st.fs.Counters())
	}
	fs, done, err := ext3.Mount(done, st.endpoint, st.hw.clientFSOpts())
	if err != nil {
		return now, fmt.Errorf("testbed: iscsi mount: %w", err)
	}
	st.fs = fs
	return done, nil
}

func (st *iscsiStack) Drain(now time.Duration) (time.Duration, error) {
	// A crashed client filesystem has nothing to drain.
	if !st.fs.Mounted() {
		return now, nil
	}
	return quiesce(st.fs, now)
}

func (st *iscsiStack) ColdCache(now time.Duration) (time.Duration, error) {
	// A crashed filesystem cannot unmount; remount recovery handles it.
	if st.fs.Mounted() {
		done, err := st.fs.Unmount(now)
		if err != nil {
			return now, err
		}
		now = done
	}
	st.fsBase = addCounterMap(st.fsBase, st.fs.Counters())
	fs, done, err := ext3.Mount(now, st.endpoint, st.hw.clientFSOpts())
	if err != nil {
		return now, err
	}
	st.fs = fs
	return done, nil
}
