package testbed

import (
	"strconv"

	"repro/internal/metrics"
)

// Telemetry wiring: which counter source each protocol stack contributes
// to the unified metrics event stream (docs/METRICS.md). Sources are
// registered once per client and read through the stack at sample time;
// stacks keep their counters monotonic across cold-cache rebuilds by
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

// counterSource is one per-client counter source a stack contributes.
// onHost sources are the client-side twins of machinery the server also
// has (a filesystem) and carry {client, host=client}; the rest carry
// {client}.
type counterSource struct {
	subsys string
	onHost bool
	fn     func() map[string]int64
}

// tcpCounters adapts a stack's cumulative TCP counters to a source.
func tcpCounters(st Stack) func() map[string]int64 {
	return func() map[string]int64 { return st.Counters().TCP.Counters() }
}

func (st *nfsStack) counterSources() []counterSource {
	return []counterSource{
		{subsys: metrics.SubsysRPC, fn: func() map[string]int64 { return st.Counters().RPC.Counters() }},
		{subsys: metrics.SubsysTCP, fn: tcpCounters(st)},
	}
}

func (st *iscsiStack) counterSources() []counterSource {
	return []counterSource{
		{subsys: metrics.SubsysISCSI, fn: st.endpointCounters},
		{subsys: metrics.SubsysTCP, fn: tcpCounters(st)},
		{subsys: metrics.SubsysExt3, onHost: true, fn: st.fsCounters},
	}
}

// registerClient registers client i's sources: its own network (when
// clients do not ride one shared segment), its CPU, plus whatever the
// mounted stack contributes (SunRPC and the NFS client's TCP connection,
// or the iSCSI endpoint, its TCP connections and the client-side ext3).
// extra tags (a heterogeneous cluster's per-client rtt/loss axes, the
// sampling tags) are merged onto every source; nil leaves the homogeneous
// tag set untouched.
func (cl *Cluster) registerClient(i int, extra metrics.Tags) {
	c, rec := cl.Clients[i], cl.rec
	tags := clientTag(c.ID)
	host := metrics.Tags{"client": tags["client"], "host": "client"}
	for k, v := range extra {
		tags[k] = v
		host[k] = v
	}
	if cl.Net == nil {
		rec.Register(metrics.SubsysNet, tags, cl.nets[i].Counters)
	}
	rec.Register(metrics.SubsysCPU, host, c.CPU.Counters)
	for _, s := range c.Stack.counterSources() {
		if s.onHost {
			rec.Register(s.subsys, host, s.fn)
		} else {
			rec.Register(s.subsys, tags, s.fn)
		}
	}
}

// registerSources registers the server-side protocol sources every NFS
// client of the export shares: the nfsd per-procedure counts and the
// export's ext3 caches. (iSCSI has no server-side filesystem — its
// target serves raw blocks — so there is no iSCSI counterpart.)
func (s *nfsServer) registerSources(rec *metrics.Recorder) {
	rec.Register(metrics.SubsysNFS, nil, s.srv.Counters)
	rec.Register(metrics.SubsysExt3, metrics.Tags{"host": "server"}, func() map[string]int64 {
		return addCounterMap(s.fs.Counters(), s.fsBase)
	})
}
