package core

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/testbed"
)

// One cell: the skeleton every experiment shares. A sweep is a loop over its
// axes; what happens inside one iteration — which stack/transport variants
// exist, how a cell is tagged, built, framed in the telemetry stream, closed
// and classified when its transport dies — is decided here once, so an
// experiment only supplies its own setup and measurement. runCell is the
// cluster half (scaling, replay, WAN, fault, contention, health); onBed,
// window and onPair are the one-client half (the paper's tables and figures,
// the ablations and the transport sweep).

// cellRecorder derives the recorder one experiment cell emits through:
// events carry {experiment, stack} plus the cell's extra axis tags. The
// instrumented layers stream counter samples through it and the cell's
// window closes with a result point; docs/METRICS.md documents the schema,
// cmd/metrics summarizes the streams.
func cellRecorder(rec *metrics.Recorder, experiment string, k Stack, extra metrics.Tags) *metrics.Recorder {
	return rec.With(metrics.Tags{"experiment": experiment, "stack": k.Tag()}).With(extra)
}

// itoa tags an integer axis value.
func itoa(n int) string { return strconv.Itoa(n) }

// ftoa tags a float axis value ("0.01", not "1e-02").
func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// onBed builds the one-client cell cfg describes and runs body on it. The
// cell's events carry {experiment, stack} plus tags; the cluster is closed
// whatever body returns, so its blocks go back to the sweep's pool and body
// reads everything it reports before it returns.
func onBed(experiment string, rec *metrics.Recorder, tags metrics.Tags, cfg testbed.Config,
	body func(*testbed.Testbed) error) error {
	cfg.Metrics = cellRecorder(rec, experiment, cfg.Kind, tags)
	tb, err := testbed.New(cfg)
	if err != nil {
		return err
	}
	defer tb.Cluster.Close()
	return body(tb)
}

// onBed is the package's onBed on the paper's testbed: cfg names the stack
// and whatever the experiment varies, the Options supply volume size, seed,
// frame loss, recorder and pool.
func (o Options) onBed(experiment string, tags metrics.Tags, cfg testbed.Config,
	body func(*testbed.Testbed) error) error {
	cfg.DeviceBlocks, cfg.Seed, cfg.LossRate, cfg.Pool = o.DeviceBlocks, o.Seed, o.LossRate, o.pool
	return onBed(experiment, o.Metrics, tags, cfg, body)
}

// onPair runs one cell on NFS v3 and one on iSCSI, the pair Section 5
// compares, and returns what run measured on each.
func onPair[R any](o Options, experiment string, tags metrics.Tags, cfg testbed.Config,
	run func(*testbed.Testbed) (R, error)) (nfs, iscsi R, err error) {
	for _, stack := range []Stack{NFSv3, ISCSI} {
		cfg.Kind = stack
		var r R
		err = o.onBed(experiment, tags, cfg, func(tb *testbed.Testbed) (err error) {
			r, err = run(tb)
			return err
		})
		if err != nil {
			return nfs, iscsi, fmt.Errorf("%s on %v: %w", experiment, stack, err)
		}
		if stack == NFSv3 {
			nfs = r
		} else {
			iscsi = r
		}
	}
	return nfs, iscsi, nil
}

// window frames one measured window on a one-client cell: begin mark, body,
// drain to quiescence (the paper's measurement boundary), end mark. toReturn
// skips the drain for the one panel that counts to syscall return. The end
// mark carries the window's message count plus whatever extra adds.
func window(tb *testbed.Testbed, toReturn bool, body func() error,
	extra func(d testbed.Delta, results map[string]float64)) (testbed.Delta, error) {
	tb.Cluster.BeginWindow(nil)
	before := tb.Snap()
	if err := body(); err != nil {
		return testbed.Delta{}, err
	}
	if !toReturn {
		if err := tb.Drain(); err != nil {
			return testbed.Delta{}, err
		}
	}
	d := tb.Since(before)
	results := map[string]float64{"messages": float64(d.Messages)}
	if extra != nil {
		extra(d, results)
	}
	tb.Cluster.EndWindow(nil, results)
	return d, nil
}

// warmGap is the idle time between the priming and the measured invocation
// of a warm-cache pair. It exceeds the client attribute-cache timeout (3 s)
// and the journal commit interval (5 s), as wall-clock time did between the
// paper's manual runs.
const warmGap = 6 * time.Second

// settle ends the priming half of a warm-cache pair: drain, then sit idle
// for warmGap.
func settle(tb *testbed.Testbed) error {
	if err := tb.Drain(); err != nil {
		return err
	}
	tb.Idle(warmGap)
	return nil
}

// variant is one stack/transport arrangement of a sweep, with the iSCSI
// MC/S connection count it runs at.
type variant struct {
	stack     Stack
	transport testbed.Transport
	conns     int
}

// variants crosses stacks with transports in sweep order, dropping the
// pair no deployment has (iSCSI over UDP: the protocol requires TCP) and
// resolving the connection counts: the sweep's MC/S knob applies to iSCSI
// over TCP only, one variant per count in order; every other variant runs
// one connection.
func variants(stacks []Stack, transports []testbed.Transport, conns ...int) []variant {
	var vs []variant
	for _, stack := range stacks {
		for _, tr := range transports {
			switch {
			case stack == ISCSI && tr == testbed.TransportUDP: // no such deployment
			case stack == ISCSI && tr == testbed.TransportTCP:
				for _, n := range conns {
					vs = append(vs, variant{stack, tr, n})
				}
			default:
				vs = append(vs, variant{stack, tr, 1})
			}
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
