package testbed

import (
	"strconv"
	"time"

	"repro/internal/health"
	"repro/internal/metrics"
)

// Telemetry wiring: the cluster's stations, each registered once in both
// planes, as a counter source of the unified metrics event stream
// (docs/METRICS.md) and as a gauge source of a health monitor
// (docs/HEALTH.md). Sources read through the stack at sample or scrape
// time; stacks keep their counters monotonic across cold-cache rebuilds by
// folding retired endpoints into *Base accumulators, so stream totals are
// exact. A counter that falls anyway is the recorder's error (Sink.Err).

// clientTag returns the client tag set for client id.
func clientTag(id int) metrics.Tags {
	return metrics.Tags{"client": strconv.Itoa(id)}
}

// addCounterMap accumulates src into dst, allocating dst if needed.
func addCounterMap(dst, src map[string]int64) map[string]int64 {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string]int64, len(src))
	}
	for k, v := range src {
		dst[k] += v
	}
	return dst
}

// station is one instrumented resource: the counter source it adds to the
// metrics stream under subsys, the gauge source it adds to a health
// monitor under the station name gauge, or both. A station that reports
// busy time gains a windowed "util" gauge. A shared station's counters
// carry tags; a client station's carry {client} plus that client's axis
// and sampling tags, and {host=client} too when onHost (the client-side
// twin of machinery the server also has, a filesystem or a CPU). Its
// gauges carry {client} alone.
type station struct {
	subsys   string
	tags     metrics.Tags
	onHost   bool
	counters func() map[string]int64
	gauge    string
	gauges   func(now time.Duration) map[string]float64
	busy     func() time.Duration
}

// gaugeFn returns the station's gauge source. The utilization closure is
// built here, at registration, so only a monitored cluster opens the
// window; it wraps a cluster-owned resource (a CPU, the array) that
// survives remounts and server restarts, so the series stays continuous
// across ColdCache and crash recovery.
func (s station) gaugeFn() func(time.Duration) map[string]float64 {
	if s.busy == nil {
		return s.gauges
	}
	util := health.UtilFromBusy(s.busy)
	return func(now time.Duration) map[string]float64 {
		g := s.gauges(now)
		g["util"] = util(now)
		return g
	}
}

// stations lists the shared stations in registration order: the wire
// (bottleneck link and/or segment), the array, the server CPU, the sharing
// tables, the fleet and the NFS server with its export's ext3. (iSCSI has
// no server-side filesystem — its target serves raw blocks — so there is
// no iSCSI counterpart of the last two.)
func (cl *Cluster) stations() []station {
	out := make([]station, 0, 9)
	if cl.Link != nil {
		out = append(out, station{subsys: metrics.SubsysNet, tags: metrics.Tags{"link": "shared"},
			counters: cl.Link.Counters, gauge: "net.shared", gauges: cl.Link.Gauges})
	}
	if cl.Net != nil {
		out = append(out, station{subsys: metrics.SubsysNet, counters: cl.Net.Counters})
	}
	arr, cpu := cl.Array(), cl.ServerCPU
	out = append(out,
		station{subsys: metrics.SubsysDisk, counters: cl.vols[0].Counters,
			gauge: "disk", gauges: arr.Gauges, busy: arr.Busy},
		station{subsys: metrics.SubsysCPU, tags: metrics.Tags{"host": "server"}, counters: cpu.Counters,
			gauge: "cpu.server", gauges: cpu.Gauges, busy: cpu.Busy})
	if cl.locks != nil {
		out = append(out, station{subsys: metrics.SubsysLock, counters: cl.locks.Counters,
			gauge: "lock", gauges: cl.locks.Gauges})
	}
	if cl.deleg != nil {
		out = append(out, station{subsys: metrics.SubsysLease, counters: cl.deleg.Counters})
	}
	if cl.rsv != nil {
		out = append(out, station{subsys: metrics.SubsysLock, tags: metrics.Tags{"proto": "scsi"}, counters: cl.rsv.Counters})
	}
	if cl.fluid != nil {
		out = append(out, station{subsys: metrics.SubsysFleet,
			tags: metrics.Tags{"background": strconv.Itoa(cl.fluid.Background)}, counters: cl.fleetCounters})
	}
	if s := cl.srv; s != nil {
		out = append(out, station{subsys: metrics.SubsysNFS, counters: s.srv.Counters},
			station{subsys: metrics.SubsysExt3, tags: metrics.Tags{"host": "server"}, counters: func() map[string]int64 {
				return addCounterMap(s.fs.Counters(), s.fsBase)
			}})
	}
	return out
}

// clientStations lists client i's stations in registration order: its own
// network (when clients do not ride one shared segment), its CPU, then
// what the mounted stack contributes.
func (cl *Cluster) clientStations(i int) []station {
	c := cl.Clients[i]
	out := make([]station, 0, 5)
	if cl.Net == nil {
		out = append(out, station{subsys: metrics.SubsysNet, counters: cl.nets[i].Counters})
	}
	out = append(out, station{subsys: metrics.SubsysCPU, onHost: true, counters: c.CPU.Counters,
		gauge: "cpu.client", gauges: c.CPU.Gauges, busy: c.CPU.Busy})
	return append(out, c.stack.stations()...)
}

// tcpCounters adapts a stack's cumulative TCP counters to a source.
func tcpCounters(st stack) func() map[string]int64 {
	return func() map[string]int64 { return st.Counters().TCP.Counters() }
}

// stations: SunRPC and the NFS client's TCP connection. The gauges read
// st.rpc and st.conn at scrape time, so a remount that rebuilds the
// protocol client (Mount folds the retired instance into the counter
// bases) re-points them too; without a connection (a fluid or UDP
// transport) the TCP station skips the scrape.
func (st *nfsStack) stations() []station {
	return []station{
		{subsys: metrics.SubsysRPC, counters: func() map[string]int64 { return st.Counters().RPC.Counters() },
			gauge: "rpc", gauges: func(now time.Duration) map[string]float64 { return st.rpc.Gauges(now) }},
		{subsys: metrics.SubsysTCP, counters: tcpCounters(st),
			gauge: "tcp", gauges: func(now time.Duration) map[string]float64 {
				if st.conn == nil {
					return nil
				}
				return st.conn.Gauges(now)
			}},
	}
}

// stations: the iSCSI endpoint, its TCP connections (the MC/S session's
// aggregate congestion state; nil on the fluid wire, which skips the
// scrape) and the client-side ext3.
func (st *iscsiStack) stations() []station {
	return []station{
		{subsys: metrics.SubsysISCSI, counters: st.endpointCounters},
		{subsys: metrics.SubsysTCP, counters: tcpCounters(st),
			gauge: "tcp", gauges: func(now time.Duration) map[string]float64 { return st.endpoint.Gauges(now) }},
		{subsys: metrics.SubsysExt3, onHost: true, counters: st.fsCounters},
	}
}

// instrument registers every station on the cluster recorder and on m in
// one walk: shared stations first, then each client's in client order,
// stratified-sampled above the telemetry fan-in. The monitor is bound to
// the recorder, so gauge and alert events inherit the cluster tag set. In
// heterogeneous mode every client's counter sources — its own network
// included — carry that client's rtt/loss tags. With neither plane
// attached it does nothing.
func (cl *Cluster) instrument(m *health.Monitor) {
	if cl.rec == nil && m == nil {
		return
	}
	m.Bind(cl.rec)
	register := func(s station, tags, gaugeTags metrics.Tags) {
		if s.counters != nil {
			cl.rec.Register(s.subsys, tags, s.counters)
		}
		if m != nil && s.gauges != nil {
			m.Register(health.Source{Station: s.gauge, Tags: gaugeTags, Fn: s.gaugeFn()})
		}
	}
	for _, s := range cl.stations() {
		register(s, s.tags, nil)
	}
	for _, s := range cl.strata() {
		sel := cl.sampled(s)
		var sampleTags metrics.Tags
		if len(sel) < len(s.members) {
			// Tag the sampled sources so summaries re-weight counter
			// totals by population/sample (docs/METRICS.md).
			sampleTags = metrics.Tags{
				metrics.TagSampled:    "true",
				metrics.TagPopulation: strconv.Itoa(len(s.members)),
				metrics.TagSample:     strconv.Itoa(len(sel)),
			}
		}
		for _, i := range sel {
			id, tags := clientTag(cl.Clients[i].ID), clientTag(cl.Clients[i].ID)
			host := metrics.Tags{"client": id["client"], "host": "client"}
			for _, extra := range [...]metrics.Tags{s.axis, sampleTags} {
				for k, v := range extra {
					tags[k] = v
					host[k] = v
				}
			}
			for _, st := range cl.clientStations(i) {
				if st.onHost {
					register(st, host, id)
				} else {
					register(st, tags, id)
				}
			}
		}
	}
}

// sampled returns the stratum members that carry telemetry sources: all
// of them up to the configured fan-in (0 means defaultTelemetryFanIn,
// negative unlimited), above it a stride-selected fan-in's worth spread
// across the stratum.
func (cl *Cluster) sampled(s *stratum) []int {
	fanIn := cl.Cfg.TelemetryFanIn
	if fanIn == 0 {
		fanIn = defaultTelemetryFanIn
	}
	if fanIn < 0 || len(s.members) <= fanIn {
		return s.members
	}
	sel := make([]int, fanIn)
	for j := range sel {
		sel[j] = s.members[j*len(s.members)/fanIn]
	}
	return sel
}

// stratum is one telemetry sampling stratum: the clients sharing a
// heterogeneity tag set (axis: rtt/loss, nil in homogeneous mode), in
// registration order.
type stratum struct {
	axis    metrics.Tags
	members []int
}

// strata partitions clients by their axis tags, preserving client order
// within and across strata, so stratified sampling covers every
// heterogeneity class rather than whatever a uniform sample happens to
// hit.
func (cl *Cluster) strata() []*stratum {
	out := []*stratum{}
	index := map[string]*stratum{}
	for i := range cl.Clients {
		tags := cl.clientAxisTags(i)
		key := tags["rtt"] + "|" + tags["loss"]
		s, ok := index[key]
		if !ok {
			s = &stratum{axis: tags}
			index[key] = s
			out = append(out, s)
		}
		s.members = append(s.members, i)
	}
	return out
}

// clientAxisTags returns the straggler-attribution tags for client i's
// metric sources: rtt/loss in heterogeneous (per-client network) mode,
// nil otherwise — so homogeneous streams stay byte-identical.
func (cl *Cluster) clientAxisTags(i int) metrics.Tags {
	if cl.Net != nil {
		return nil
	}
	n := cl.nets[i]
	return metrics.Tags{
		"rtt":  n.RTT().String(),
		"loss": strconv.FormatFloat(n.LossRate(), 'g', -1, 64),
	}
}

// Health exposes the cluster's health monitor (nil when none was
// configured — the inert state).
func (cl *Cluster) Health() *health.Monitor { return cl.health }
