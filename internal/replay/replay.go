// Package replay drives a testbed.Cluster from timestamped operation
// logs: the Section 7 traces (trace.Synthesize), or arbitrary op logs
// decoded from JSON-lines files (trace.ReadJSONL). Where the standalone
// simulators in internal/trace count cache hits and callbacks, replay
// pushes every traced operation through a full protocol stack — NFS
// v2/v3/v4 RPCs or iSCSI block I/O, over the fluid or virtual-time TCP
// wire — so the Figure 7 workloads finally meet the Section 5/6
// performance machinery.
//
// The engine is open-loop: one resumable step-machine driver per traced
// client honors the trace's inter-arrival gaps in virtual time. An op
// whose issue time has not arrived waits (the client idles to the
// timestamp); an op whose issue time has passed queues behind its
// predecessor and issues immediately on completion — load is never
// stretched to match a slow server, exactly how real trace replayers
// (and bursty production clients) behave. Per-op completion latencies
// come out as nearest-rank percentiles, per-client summaries, and
// aggregate throughput.
package replay

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/testbed"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Options shapes how an op log maps onto a cluster.
type Options struct {
	// DirMod folds the trace's directory namespace onto at most DirMod
	// simulated directories (0 = no folding). Real traces reference tens
	// of thousands of directories; folding keeps setup proportional to
	// the replayed slice while preserving the sharing pattern.
	DirMod int
	// MaxOps truncates the log after that many records (0 = replay all).
	MaxOps int
}

// OpResult is one replayed operation's timing, in the cluster's virtual
// time (all fields are absolute, measured from simulated boot).
type OpResult struct {
	Client int           // cluster client that issued the op
	Index  int           // position in that client's log
	Kind   trace.OpKind  // what was replayed
	At     time.Duration // scheduled issue time (trace timestamp + replay start)
	Start  time.Duration // actual issue time: max(At, predecessor completion)
	Done   time.Duration // completion time
}

// Latency is the service time: issue to completion.
func (r OpResult) Latency() time.Duration { return r.Done - r.Start }

// queueDelay is how long the op waited behind its predecessor past its
// scheduled issue time (0 when the client was idle at the timestamp).
func (r OpResult) queueDelay() time.Duration { return r.Start - r.At }

// ClientSummary aggregates one traced client's ops.
type ClientSummary struct {
	Client int
	Ops    int
	Mean   time.Duration
	P50    time.Duration
	P99    time.Duration
}

// Result is one replay run's measurement.
type Result struct {
	// Ops holds every replayed op, client-major in log order (the
	// determinism tests compare this sequence byte for byte).
	Ops []OpResult
	// PerClient summarizes each cluster client, in client order.
	PerClient []ClientSummary
	// Start is the virtual time the replay window opened (after setup);
	// Elapsed spans Start to the last completion across all clients.
	Start   time.Duration
	Elapsed time.Duration
	// Latency percentiles (nearest-rank) and mean over all ops.
	P50, P90, P99, Mean time.Duration
	// OpsPerSec is aggregate replayed-op throughput over Elapsed.
	OpsPerSec float64
	// Messages counts NFS server requests inside the measured window (0
	// for iSCSI clusters, whose ops never reach an NFS server). On a
	// delegating NFSv4 cluster 1-Messages/ops is the full-stack message
	// reduction the Section 7 simulator predicts.
	Messages int64
	// Recalls counts delegation recalls inside the window (0 unless the
	// cluster delegates).
	Recalls int64
}

// dirPath names the simulated directory a trace dir id maps to.
func dirPath(dir int) string { return fmt.Sprintf("/t%d", dir) }

// fold maps records onto the cluster: client ids wrap onto the cluster's
// client count, dir ids onto the bounded namespace, and the log is
// truncated to MaxOps. Per-client log order (and the global timestamp
// order) is preserved.
func fold(clients int, recs []trace.Record, opt Options) [][]trace.Record {
	per := make([][]trace.Record, clients)
	total := 0
	for _, r := range recs {
		if opt.MaxOps > 0 && total >= opt.MaxOps {
			break
		}
		total++
		c := r.Client % clients
		if c < 0 {
			c += clients
		}
		r.Client = c
		if opt.DirMod > 0 {
			d := r.Dir % opt.DirMod
			if d < 0 {
				d += opt.DirMod
			}
			r.Dir = d
		}
		per[c] = append(per[c], r)
	}
	return per
}

// setupDirs pre-creates every directory the replay will touch, as an
// unmeasured interleaved phase ending in a drain barrier. NFS clients
// share one export, so each directory is created once (by the
// lowest-numbered client that touches it); iSCSI clients each own a
// private filesystem, so every client lays out its own working set.
func setupDirs(cl *testbed.Cluster, per [][]trace.Record) error {
	create := make([][]int, len(cl.Clients))
	if cl.Kind == testbed.ISCSI {
		for i, ops := range per {
			seen := map[int]bool{}
			for _, r := range ops {
				if !seen[r.Dir] {
					seen[r.Dir] = true
					create[i] = append(create[i], r.Dir)
				}
			}
		}
	} else {
		owner := map[int]int{}
		for i, ops := range per {
			for _, r := range ops {
				if o, ok := owner[r.Dir]; !ok || i < o {
					owner[r.Dir] = i
				}
			}
		}
		for d, i := range owner {
			create[i] = append(create[i], d)
		}
	}
	steps := make([]workload.Steps, len(cl.Clients))
	for i, c := range cl.Clients {
		sort.Ints(create[i])
		dirs := create[i]
		c := c
		k := 0
		steps[i] = func() (bool, error) {
			if k >= len(dirs) {
				return false, nil
			}
			d := dirs[k]
			k++
			return k < len(dirs), c.Mkdir(dirPath(d))
		}
	}
	if err := cl.Run(workload.Drivers(steps)); err != nil {
		return err
	}
	// Durable and visible to every client before the measured window.
	return cl.Drain()
}

// issue maps a trace kind onto the stacks' syscall surface: a meta-data
// read is a Stat of the directory (a lookup+getattr — exactly what the
// client attribute cache and the server answer), a meta-data update is a
// Utimes on it (a setattr: the smallest state-bounded directory update
// every stack must push to stable storage).
func issue(c *testbed.Client, kind trace.OpKind, dir int) error {
	if kind == trace.OpRead {
		_, err := c.Stat(dirPath(dir))
		return err
	}
	return c.Utimes(dirPath(dir))
}

// Run replays recs through the cluster open-loop and reports per-op
// latencies. Identical traces on identical clusters yield byte-identical
// Results.
func Run(cl *testbed.Cluster, recs []trace.Record, opt Options) (*Result, error) {
	per := fold(len(cl.Clients), recs, opt)
	for i, ops := range per {
		for k := 1; k < len(ops); k++ {
			if ops[k].At < ops[k-1].At {
				return nil, fmt.Errorf("replay: client %d log out of order at op %d (%v before %v)",
					i, k, ops[k].At, ops[k-1].At)
			}
		}
	}
	if err := setupDirs(cl, per); err != nil {
		return nil, fmt.Errorf("replay: setup: %w", err)
	}
	t0 := cl.Align()
	// Open the oracle measurement window: leases acquired during setup
	// are dropped so the window starts from the simulator's empty-table
	// state, and the server request counter is snapshotted so Messages
	// covers exactly the replayed ops.
	reqs0 := cl.ServerRequests()
	var recalls0 int64
	if d := cl.Delegations(); d != nil {
		d.Reset()
		recalls0 = d.Recalls()
	}

	results := make([][]OpResult, len(cl.Clients))
	steps := make([]workload.Steps, len(cl.Clients))
	for i := range cl.Clients {
		i := i
		c := cl.Clients[i]
		ops := per[i]
		k := 0
		waiting := false
		steps[i] = func() (bool, error) {
			if k >= len(ops) {
				return false, nil
			}
			op := ops[k]
			issueAt := t0 + op.At
			if !waiting && c.Clock.Now() < issueAt {
				// Pace in a step of its own: advance only this client's
				// timeline to the scheduled issue time, then yield, so
				// peers with earlier clocks run first and the issue never
				// lands "in the past" of a slower client.
				c.IdleUntil(issueAt)
				waiting = true
				return true, nil
			}
			waiting = false
			k++
			start := c.Clock.Now()
			if err := issue(c, op.Kind, op.Dir); err != nil {
				return false, fmt.Errorf("replay: client %d op %d: %w", i, k-1, err)
			}
			results[i] = append(results[i], OpResult{
				Client: i, Index: k - 1, Kind: op.Kind,
				At: issueAt, Start: start, Done: c.Clock.Now(),
			})
			return k < len(ops), nil
		}
	}
	if err := cl.Run(workload.Drivers(steps)); err != nil {
		return nil, err
	}
	end := cl.Align()

	res := &Result{Start: t0, Elapsed: end - t0}
	res.Messages = cl.ServerRequests() - reqs0
	if d := cl.Delegations(); d != nil {
		res.Recalls = d.Recalls() - recalls0
	}
	for i := range results {
		res.Ops = append(res.Ops, results[i]...)
		sorted := sortSample(latencies(results[i]))
		res.PerClient = append(res.PerClient, ClientSummary{
			Client: i,
			Ops:    len(results[i]),
			Mean:   meanDuration(sorted),
			P50:    metrics.Percentile(sorted, 50),
			P99:    metrics.Percentile(sorted, 99),
		})
	}
	sorted := sortSample(latencies(res.Ops))
	res.Mean = meanDuration(sorted)
	res.P50 = metrics.Percentile(sorted, 50)
	res.P90 = metrics.Percentile(sorted, 90)
	res.P99 = metrics.Percentile(sorted, 99)
	if res.Elapsed > 0 {
		res.OpsPerSec = float64(len(res.Ops)) / res.Elapsed.Seconds()
	}
	return res, nil
}
