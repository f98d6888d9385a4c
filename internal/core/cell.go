package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/testbed"
)

// One cell: the skeleton the cluster sweeps (scaling, replay, WAN, fault,
// contention, health) share. A sweep is a loop over its axes; what happens
// inside one iteration — which stack/transport variants exist, how a cell
// is tagged, built, framed in the telemetry stream and classified when its
// transport dies — is decided here once, so a sweep only supplies its own
// setup and measurement.

// variant is one stack/transport arrangement of a sweep, with the iSCSI
// MC/S connection count it runs at.
type variant struct {
	stack     Stack
	transport testbed.Transport
	conns     int
}

// variants crosses stacks with transports in sweep order, dropping the
// pair no deployment has (iSCSI over UDP: the protocol requires TCP) and
// resolving the connection count: the sweep's MC/S knob applies to iSCSI
// over TCP only, every other variant runs one connection.
func variants(stacks []Stack, transports []testbed.Transport, conns int) []variant {
	var vs []variant
	for _, stack := range stacks {
		for _, tr := range transports {
			if stack == ISCSI && tr == testbed.TransportUDP {
				continue
			}
			v := variant{stack, tr, 1}
			if stack == ISCSI && tr == testbed.TransportTCP {
				v.conns = conns
			}
			vs = append(vs, v)
		}
	}
	return vs
}

// variantLabel names a stack/transport variant the way the tables print
// it ("NFS v3/udp", "iSCSI/tcp").
func variantLabel(stack Stack, tr testbed.Transport) string {
	return fmt.Sprintf("%s/%s", stack, tr)
}

// cellSpec describes one cell to runCell.
type cellSpec struct {
	// experiment is the cell's experiment tag ("scale", "wan", ...).
	experiment string
	v          variant
	// clients is the cell's client population (at least 1). It is what
	// the stream's clients tag carries and, unless cluster.Clients says
	// fewer run mechanistically, the cluster size.
	clients int
	// tags are the sweep's own axis tags, on top of {experiment, stack,
	// clients, conns} (conns only for sweeps that have the knob).
	tags metrics.Tags
	// health, when non-nil, gives the cell its own monitor (alert state
	// is per cell).
	health  *health.Config
	metrics *metrics.Recorder
	// cluster carries everything else the cluster is built from (volume
	// size, seed, window, bottleneck, sharing, tracer, ...).
	cluster testbed.ClusterConfig
}

// collapsed reports whether a cell's error is a collapse rather than a
// failure: a transport connection died (TCP retransmissions exhausted, a
// datagram retry budget spent) before the cell completed. The paper's
// harness would report "server not responding" here; a sweep whose cells
// can say so reports the regime boundary instead of aborting.
func collapsed(err error) bool { return errors.Is(err, simnet.ErrTransportBroken) }

// runCell builds one cluster and runs one cell on it: the unmeasured
// setup (may be nil), then measure inside the telemetry window, whose end
// mark carries the results measure returns. A collapse comes back as the
// error it is, wherever it happens — test it with collapsed — and leaves
// the stream balanced: during build or setup the cell has no marks yet,
// inside the window its end mark carries collapsed=1. The cluster is closed
// on return: measure reads everything it reports before it returns.
func runCell(spec cellSpec, setup func(*testbed.Cluster) error,
	measure func(*testbed.Cluster) (map[string]float64, error)) error {
	if spec.clients < 1 {
		return fmt.Errorf("%s: client count %d, need at least 1", spec.experiment, spec.clients)
	}
	tags := metrics.Tags{"clients": itoa(spec.clients)}
	if spec.v.conns > 0 {
		tags["conns"] = itoa(spec.v.conns)
	}
	for k, v := range spec.tags {
		tags[k] = v
	}
	cc := spec.cluster
	cc.Kind, cc.Transport, cc.Conns = spec.v.stack, spec.v.transport, spec.v.conns
	if cc.Clients == 0 {
		cc.Clients = spec.clients
	}
	cc.Metrics = cellRecorder(spec.metrics, spec.experiment, spec.v.stack, tags)
	if spec.health != nil {
		mon, err := health.New(*spec.health)
		if err != nil {
			return err
		}
		cc.Health = mon
	}
	cl, err := testbed.NewCluster(cc)
	if err != nil {
		return err
	}
	defer cl.Close()
	if setup != nil {
		if err := setup(cl); err != nil {
			return err
		}
	}
	cl.BeginWindow(nil)
	results, err := measure(cl)
	if collapsed(err) {
		results = map[string]float64{"collapsed": 1}
	} else if err != nil {
		return err
	}
	cl.EndWindow(nil, results)
	return err
}

// runDriverCell is runCell for the cells whose setup is scaleDrivers (the
// scaling and WAN sweeps, and the fleet calibration): measure gets the
// drivers setup built and the nominal data volume they will move.
func runDriverCell(spec cellSpec, cfg ScaleConfig, wl string, measure func(cl *testbed.Cluster,
	drivers []func() (bool, error), aggBytes int64) (map[string]float64, error)) error {
	var drivers []func() (bool, error)
	var aggBytes int64
	return runCell(spec, func(cl *testbed.Cluster) (err error) {
		drivers, aggBytes, err = scaleDrivers(cl, cfg, wl)
		return err
	}, func(cl *testbed.Cluster) (map[string]float64, error) {
		return measure(cl, drivers, aggBytes)
	})
}

// driverRun is what one interleaved run of per-client drivers measured.
type driverRun struct {
	Before testbed.Snapshot
	// Delta is the window from Before to quiescence; its Elapsed is never
	// below a millisecond, so rates over it are finite.
	testbed.Delta
	// Ops is the syscall count across clients during the run phase;
	// LatMean the mean over clients of each client's mean per-syscall
	// latency (drain excluded), LatMax the slowest client's.
	Ops             int64
	LatMean, LatMax time.Duration
}

// runDrivers is the measured body of a driver cell: snapshot, interleave
// the drivers to completion, take per-client latencies, drain to
// quiescence, difference the snapshot.
func runDrivers(cl *testbed.Cluster, drivers []func() (bool, error)) (driverRun, error) {
	r := driverRun{Before: cl.Snap()}
	startOps := make([]int64, len(cl.Clients))
	startT := make([]time.Duration, len(cl.Clients))
	for i, c := range cl.Clients {
		startOps[i], startT[i] = c.Ops(), c.Clock.Now()
	}
	if err := cl.Run(drivers); err != nil {
		return r, err
	}
	var latSum time.Duration
	for i, c := range cl.Clients {
		ops := c.Ops() - startOps[i]
		r.Ops += ops
		if ops > 0 {
			lat := (c.Clock.Now() - startT[i]) / time.Duration(ops)
			latSum += lat
			if lat > r.LatMax {
				r.LatMax = lat
			}
		}
	}
	r.LatMean = latSum / time.Duration(len(cl.Clients))
	if err := cl.Drain(); err != nil {
		return r, err
	}
	r.Delta = cl.Since(r.Before)
	if r.Elapsed <= 0 {
		r.Elapsed = time.Millisecond
	}
	return r, nil
}

// panels indexes a sweep's cells for rendering: panel keys and row labels
// in first-seen order, and the cells under each (panel, label).
type panels[K comparable, C any] struct {
	keys   []K
	labels []string
	at     map[K]map[string][]C
}

// groupCells builds the index; key names a cell's panel and row label.
func groupCells[K comparable, C any](cells []C, key func(C) (K, string)) panels[K, C] {
	p := panels[K, C]{at: map[K]map[string][]C{}}
	seen := map[string]bool{}
	for _, c := range cells {
		k, l := key(c)
		if p.at[k] == nil {
			p.keys = append(p.keys, k)
			p.at[k] = map[string][]C{}
		}
		if !seen[l] {
			seen[l] = true
			p.labels = append(p.labels, l)
		}
		p.at[k][l] = append(p.at[k][l], c)
	}
	return p
}

// rows calls f for every cell of panel k, row labels in first-seen order.
func (p panels[K, C]) rows(k K, f func(label string, c C)) {
	for _, l := range p.labels {
		for _, c := range p.at[k][l] {
			f(l, c)
		}
	}
}

// countPivot is the client-count pivot of a sweep table: the distinct
// counts of its cells in first-seen order, one 10-wide column each.
type countPivot[C any] struct {
	counts []int
	of     func(C) int
}

// pivotByCount collects the distinct client counts of a sweep's cells.
func pivotByCount[C any](cells []C, of func(C) int) countPivot[C] {
	p := countPivot[C]{of: of}
	seen := map[int]bool{}
	for _, c := range cells {
		if n := of(c); !seen[n] {
			seen[n] = true
			p.counts = append(p.counts, n)
		}
	}
	return p
}

// header prints the column-heading line.
func (p countPivot[C]) header(w io.Writer) {
	fmt.Fprintf(w, "%-22s", "clients")
	for _, n := range p.counts {
		fmt.Fprintf(w, " %9d", n)
	}
	fmt.Fprintln(w)
}

// row formats one table row from the cells of a row group: f renders the
// cell at each count, "-" fills counts the group has no cell for.
func (p countPivot[C]) row(cells []C, f func(C) string) string {
	out := ""
	for _, n := range p.counts {
		s := "-"
		for _, c := range cells {
			if p.of(c) == n {
				s = f(c)
			}
		}
		out += fmt.Sprintf(" %9s", s)
	}
	return out
}
