package testbed

import (
	"time"

	"repro/internal/health"
	"repro/internal/sim"
	"repro/internal/simdisk"
)

// Health gauge sources: the cluster's per-station USE instrumentation
// for internal/health. The gauge vocabulary is in docs/HEALTH.md; the
// registration order here mirrors instrument()'s counter-source order so
// the gauge stream is as deterministic as the sample stream.

// cpuGauges builds a CPU station source: the run-queue gauge plus a
// windowed busy-fraction utilization. The utilization closure wraps the
// cluster-owned CPU — which survives remounts and server restarts — so
// the series stays continuous across ColdCache and crash recovery.
func cpuGauges(cpu *sim.CPU) func(time.Duration) map[string]float64 {
	util := health.UtilFromBusy(cpu.Busy)
	return func(now time.Duration) map[string]float64 {
		g := cpu.Gauges(now)
		g["util"] = util(now)
		return g
	}
}

// arrayGauges builds the disk station source: the array's queue /
// degraded / rebuild gauges plus a windowed bottleneck-arm utilization.
func arrayGauges(arr *simdisk.RAID5) func(time.Duration) map[string]float64 {
	util := health.UtilFromBusy(arr.Busy)
	return func(now time.Duration) map[string]float64 {
		g := arr.Gauges(now)
		g["util"] = util(now)
		return g
	}
}

// rpcGauges reports the SunRPC slot-table occupancy of the stack's
// current RPC client. It reads st.rpc at scrape time, so a remount that
// rebuilds the protocol client (Mount folds the retired instance into
// the counter bases) transparently re-points the gauge — the
// rebuild-survival contract the counter sources established.
func (st *nfsStack) rpcGauges(now time.Duration) map[string]float64 {
	if st.rpc == nil {
		return nil
	}
	return st.rpc.Gauges(now)
}

// tcpGauges reports the congestion state of the stack's current TCP
// connection (nil under fluid transports or between remounts: the
// station skips that scrape).
func (st *nfsStack) tcpGauges(now time.Duration) map[string]float64 {
	if st.conn == nil {
		return nil
	}
	return st.conn.Gauges(now)
}

// tcpGauges reports the MC/S session's aggregate congestion state (nil
// on the fluid wire: the station skips that scrape).
func (st *iscsiStack) tcpGauges(now time.Duration) map[string]float64 {
	return st.endpoint.Gauges(now)
}

func (st *nfsStack) gaugeSources() []health.Source {
	return []health.Source{{Station: "rpc", Fn: st.rpcGauges}, {Station: "tcp", Fn: st.tcpGauges}}
}

func (st *iscsiStack) gaugeSources() []health.Source {
	return []health.Source{{Station: "tcp", Fn: st.tcpGauges}}
}

// attachHealth wires a monitor into the cluster: binds it to the
// cluster recorder (so gauge and alert events inherit the cluster tag
// set) and registers gauge sources in instrument()'s order — shared
// stations first, then per-client stations in client order, stratified-
// sampled above the telemetry fan-in exactly like counter sources.
func (cl *Cluster) attachHealth(m *health.Monitor) {
	if m == nil {
		return
	}
	cl.health = m
	m.Bind(cl.rec)
	if cl.Link != nil {
		m.Register(health.Source{Station: "net.shared", Fn: cl.Link.Gauges})
	}
	m.Register(health.Source{Station: "disk", Fn: arrayGauges(cl.Array())})
	m.Register(health.Source{Station: "cpu.server", Fn: cpuGauges(cl.ServerCPU)})
	if cl.locks != nil {
		m.Register(health.Source{Station: "lock", Fn: cl.locks.Gauges})
	}
	for _, s := range cl.strata() {
		for _, i := range cl.sampled(s) {
			c := cl.Clients[i]
			tags := clientTag(c.ID)
			m.Register(health.Source{Station: "cpu.client", Tags: tags, Fn: cpuGauges(c.CPU)})
			for _, g := range c.Stack.gaugeSources() {
				g.Tags = tags
				m.Register(g)
			}
		}
	}
}

// Health exposes the cluster's health monitor (nil when none was
// configured — the inert state).
func (cl *Cluster) Health() *health.Monitor { return cl.health }
