package fault

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/simdisk"
	"repro/internal/testbed"
)

// Every client's fixed workload shape.
const (
	// files is each client's working-set size.
	files = 4
	// syncEvery makes every n-th op cycle a durable-sync probe (a client
	// drain) instead of a read/write: asynchronous stacks mask a dead
	// server behind dirty caches until a sync forces the backlog to the
	// wire.
	syncEvery = 8
	// think is the per-op think time; it also prices the ops a crashed
	// client never issues.
	think = 10 * time.Millisecond
	// backoff delays the next op after a failed one.
	backoff = 100 * time.Millisecond
)

// Config parameterizes one fault run against a cluster.
type Config struct {
	Plan Plan
	// FileSize is each file's size in bytes (default 64 KB).
	FileSize int
	// Cooldown extends the run past the last heal event (default 2s) so
	// the post-recovery window is measurable.
	Cooldown time.Duration
	// DryRun replays the plan's timeline without firing its events: the
	// identical workload shape and windows, but no fault ever happens.
	// It is the fault-free control cell of the health experiment — any
	// alert that fires under DryRun is a false positive by construction.
	DryRun bool
}

func (c *Config) fill() {
	if c.FileSize <= 0 {
		c.FileSize = 64 << 10
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
}

// Result is the outcome of one fault run. Times are absolute virtual
// times on the cluster timeline; windows partition successful op
// completions into before the fault, between fault and full recovery,
// and after recovery.
type Result struct {
	Plan Plan
	// Inject is the first fault injection; Healed the start of the last
	// repair (reboot, rebuild start, partition end); Recovered the
	// instant service was fully restored — every client completing ops
	// again, and for disk failures the rebuild finishing.
	Inject, Healed, Recovered time.Duration
	// TTR is Recovered - Inject: the full client-visible outage, repair
	// included.
	TTR time.Duration
	// PreOps/DegradedOps/PostOps count successful op completions in each
	// window, and the matching rates are per-second throughputs over the
	// window durations.
	PreOps, DegradedOps, PostOps    int64
	PreRate, DegradedRate, PostRate float64
	// FailedOps counts op errors clients observed; LostOps adds the ops
	// a crashed client never got to issue.
	FailedOps, LostOps int64
	// RebuildBlocks is the member-block traffic the RAID rebuild moved
	// inside the run; Retransmits counts wire-level frame retransmissions
	// plus RPC-level retries spent on the fault; Dropped counts frames
	// the partition (or loss) ate.
	RebuildBlocks, Retransmits, Dropped int64
	// Collapsed reports that some client never completed an op after the
	// last heal (or a rebuild never finished) before the run's hard stop.
	Collapsed bool
}

// rebuildRowsPerStep is how many stripe rows the fault process
// reconstructs per scheduler step: small enough that foreground I/O
// interleaves with the rebuild on the member arms, large enough that a
// full-member rebuild stays a few hundred steps.
const rebuildRowsPerStep = 32

// opRec is one completed op cycle on a client's timeline.
type opRec struct {
	done time.Duration
	ok   bool
}

type clientState struct {
	ops       []opRec
	seq       int64
	failed    int64
	skipped   int64
	recovered bool // saw a successful op at/after the last heal
}

type runner struct {
	cl     *testbed.Cluster
	cfg    Config
	plan   Plan
	victim int

	t0       time.Duration
	events   []Event // plan events shifted to absolute time
	injectAt time.Duration
	healAt   time.Duration
	horizon  time.Duration
	hardStop time.Duration

	fc   *sim.Clock // the fault process timeline
	next int
	data []byte
	// read is every driver's read buffer: the drivers step one at a time
	// and discard what they read, so one buffer serves the whole run.
	read []byte

	rebuilding  bool
	rebuildDone time.Duration

	states []clientState
}

// Run executes cfg.Plan against cl and measures recovery. The cluster
// must be freshly built (or drained); Run seeds each client's working
// set, anchors the plan at the post-setup barrier, then interleaves the
// client drivers with a fault process on the cluster's virtual-time
// scheduler. Everything — failure instants, retry ladders, rebuild
// contention — is deterministic in the cluster seed and the plan.
func Run(cl *testbed.Cluster, cfg Config) (Result, error) {
	cfg.fill()
	if len(cfg.Plan.Events) == 0 {
		return Result{}, fmt.Errorf("fault: empty plan (use NewPlan)")
	}
	r := &runner{
		cl:     cl,
		cfg:    cfg,
		plan:   cfg.Plan,
		victim: cfg.Plan.Victim % len(cl.Clients),
		data:   make([]byte, cfg.FileSize),
		states: make([]clientState, len(cl.Clients)),
		fc:     sim.NewClock(),
	}
	for i := range r.data {
		r.data[i] = byte(0x5A + i%7)
	}

	// Seed the working set and quiesce: the measured window starts with
	// clean caches-of-record and aligned clocks.
	for i, c := range cl.Clients {
		for f := int64(0); f < files; f++ {
			if err := c.WriteFile(r.fileName(i, f), r.data); err != nil {
				return Result{}, fmt.Errorf("fault: setup client %d: %w", i, err)
			}
		}
	}
	if err := cl.Drain(); err != nil {
		return Result{}, fmt.Errorf("fault: setup drain: %w", err)
	}
	r.t0 = cl.Align()
	r.events = make([]Event, len(r.plan.Events))
	for i, ev := range r.plan.Events {
		r.events[i] = Event{At: r.t0 + ev.At, Action: ev.Action}
	}
	r.injectAt = r.t0 + r.plan.Inject()
	r.healAt = r.t0 + r.plan.Heal()
	r.horizon = r.healAt + cfg.Cooldown
	r.hardStop = r.healAt + 10*cfg.Cooldown
	r.fc.AdvanceTo(r.t0)

	pre := cl.Snap()
	s := sim.NewScheduler()
	// The fault process goes first so that on clock ties an event fires
	// before the tied client issues its next op; the health scraper (if
	// the cluster has one) goes next so a scrape tied with the injection
	// observes the post-inject state.
	s.Spawn(r.fc, r.faultStep)
	cl.Health().Spawn(s, r.t0)
	for i := range cl.Clients {
		s.Spawn(cl.Clients[i].Clock, r.driver(i))
	}
	if err := s.Run(); err != nil {
		return Result{}, err
	}
	return r.result(pre), nil
}

func (r *runner) fileName(client int, seq int64) string {
	return fmt.Sprintf("/fault-c%d-f%d", client, seq%files)
}

func (r *runner) arr() *simdisk.RAID5 { return r.cl.Array() }

// victimDown returns the end of the down window containing t, for the
// crashed client's driver to sleep through.
func (r *runner) victimDown(t time.Duration) (until time.Duration, down bool) {
	for i := 0; i+1 < len(r.events); i += 2 {
		if t >= r.events[i].At && t < r.events[i+1].At {
			return r.events[i+1].At, true
		}
	}
	return 0, false
}

// driver returns client i's step function: one op cycle per scheduler
// step — alternating whole-file writes and reads over the seeded working
// set, with a durable-sync probe every syncEvery cycles — recording each
// completion on the client's own timeline. Failed ops back off and
// retry; after the last heal a client that still can't reach the server
// rebuilds its stack the way a real mount retry loop would.
func (r *runner) driver(i int) func() (bool, error) {
	c := r.cl.Clients[i]
	st := &r.states[i]
	victim := r.plan.Family == ClientCrash && i == r.victim && !r.cfg.DryRun
	return func() (bool, error) {
		now := c.Clock.Now()
		if r.plan.Family == DiskFail && !r.cfg.DryRun {
			// The service is exposed until the rebuild completes: keep
			// the foreground running (and contending with the rebuild)
			// until a cooldown past its finish. The backstop covers a
			// pathologically starved rebuild only.
			if r.rebuildDone > 0 && now >= r.rebuildDone+r.cfg.Cooldown {
				return false, nil
			}
			if now >= r.healAt+100*r.cfg.Cooldown {
				return false, nil
			}
		} else {
			if now >= r.hardStop {
				return false, nil
			}
			if now >= r.horizon && st.recovered {
				return false, nil
			}
		}
		if victim {
			if until, down := r.victimDown(now); down {
				// Powered off: the client issues nothing until its
				// reboot at the heal event. The ops it would have
				// issued are lost, not failed.
				st.skipped += int64((until - now) / think)
				c.IdleUntil(until)
				return true, nil
			}
		}
		seq := st.seq
		st.seq++
		var err error
		switch {
		case seq%syncEvery == syncEvery-1:
			err = c.Drain()
		case seq%2 == 0:
			err = c.WriteFile(r.fileName(i, seq), r.data)
		default:
			var b []byte
			if b, err = c.ReadFileInto(r.fileName(i, seq), r.read); err == nil {
				r.read = b
			}
		}
		done := c.Clock.Now()
		st.ops = append(st.ops, opRec{done: done, ok: err == nil})
		r.cl.Health().ObserveOp(done, done-now, err == nil)
		if err == nil {
			if done >= r.healAt {
				st.recovered = true
			}
			c.Idle(think)
			return true, nil
		}
		st.failed++
		// Past the last heal (every planned outage window ends at or
		// before it), a still-broken transport won't repair itself (a
		// TCP connection that died after the heal event fired, say):
		// remount as a real client's retry loop would. A failed remount
		// only means the next op fails and backs off again. Before the
		// heal, back off only — the heal event owns repair.
		if done >= r.healAt {
			_ = r.recoverClient(i, done, false)
		}
		c.Idle(backoff)
		return true, nil
	}
}

// faultStep is the fault process: it idles to each planned event, fires
// it once every client clock has reached it (the scheduler steps the
// earliest clock, so a waiting fault process is stepped exactly when it
// holds the minimum), and after a disk heal drives the RAID rebuild a
// few stripe rows at a time so reconstruction traffic contends with the
// foreground ops on the member arms.
func (r *runner) faultStep() (bool, error) {
	now := r.fc.Now()
	if r.next < len(r.events) {
		ev := r.events[r.next]
		if now < ev.At {
			r.fc.AdvanceTo(ev.At)
			return true, nil
		}
		r.next++
		return true, r.fire(r.next-1, ev)
	}
	if r.rebuilding {
		done, finished, err := r.arr().RebuildStep(now, rebuildRowsPerStep)
		if err != nil {
			return false, err
		}
		r.fc.AdvanceTo(done)
		if finished {
			r.rebuilding = false
			r.rebuildDone = done
		}
		return true, nil
	}
	return false, nil
}

// fire applies event index idx. Repair work advances the fault clock
// and the repaired clients' clocks to its completion.
func (r *runner) fire(idx int, ev Event) error {
	if r.cfg.DryRun {
		return nil // control run: the timeline passes, nothing breaks
	}
	now := r.fc.Now()
	switch r.plan.Family {
	case ServerCrash:
		if ev.Action == Inject {
			r.cl.CrashServer()
			return nil
		}
		done, err := r.cl.RestartServer(now)
		if err != nil {
			return fmt.Errorf("fault: server restart: %w", err)
		}
		r.fc.AdvanceTo(done)
		for i := range r.cl.Clients {
			// No mounting against a server still booting.
			if err := r.recoverClient(i, done, true); err != nil {
				return err
			}
		}
	case DiskFail:
		if ev.Action == Inject {
			return r.arr().FailDisk(r.plan.Victim % r.arr().Members())
		}
		if err := r.arr().StartRebuild(); err != nil {
			return err
		}
		r.rebuilding = true
	case LinkFlap:
		if ev.Action == Inject {
			// Declare the whole window up front: retry ladders that
			// span it recover at exactly the heal instant.
			r.cl.PartitionNet(ev.At, r.events[idx+1].At)
			return nil
		}
		for i := range r.cl.Clients {
			if err := r.recoverClient(i, now, false); err != nil {
				return err
			}
		}
	case ClientCrash:
		if ev.Action == Inject {
			r.cl.CrashClient(r.victim)
			return nil
		}
		return r.recoverClient(r.victim, now, true)
	}
	return nil
}

// recoverClient remounts client i (only if its stack is damaged, unless
// force) no earlier than from or its own clock, and advances its clock to
// the remount's completion.
func (r *runner) recoverClient(i int, from time.Duration, force bool) error {
	c := r.cl.Clients[i]
	done, did, err := r.cl.RecoverClient(i, max(c.Clock.Now(), from), force)
	if err == nil && did {
		c.Clock.AdvanceTo(done)
	}
	return err
}

// result classifies the recorded op completions into the pre/degraded/
// post windows and derives the recovery instant.
func (r *runner) result(pre testbed.Snapshot) Result {
	end := r.cl.Align()
	post := r.cl.Snap()
	res := Result{
		Plan:          r.plan,
		Inject:        r.injectAt,
		Healed:        r.healAt,
		RebuildBlocks: post.Disk.RebuildBlocks - pre.Disk.RebuildBlocks,
		Retransmits: (post.Net.Retransmits - pre.Net.Retransmits) +
			(post.RPC.Retransmits - pre.RPC.Retransmits),
		Dropped: post.Net.Dropped - pre.Net.Dropped,
	}

	// Recovered: for a disk failure, the rebuild finishing (the array is
	// exposed to a second failure until then); otherwise the last client
	// to complete its first successful op after the final heal.
	if r.plan.Family == DiskFail {
		if r.rebuildDone == 0 {
			res.Collapsed = true
		} else {
			res.Recovered = r.rebuildDone
		}
	} else {
		for i := range r.states {
			first := time.Duration(-1)
			for _, op := range r.states[i].ops {
				if op.ok && op.done >= r.healAt {
					first = op.done
					break
				}
			}
			if first < 0 {
				res.Collapsed = true
				break
			}
			if first > res.Recovered {
				res.Recovered = first
			}
		}
	}
	if res.Collapsed {
		res.Recovered = 0
	} else {
		res.TTR = res.Recovered - res.Inject
	}

	rec := res.Recovered
	for i := range r.states {
		st := &r.states[i]
		res.FailedOps += st.failed
		res.LostOps += st.failed + st.skipped
		for _, op := range st.ops {
			if !op.ok {
				continue
			}
			switch {
			case op.done < r.injectAt:
				res.PreOps++
			case res.Collapsed || op.done < rec:
				res.DegradedOps++
			default:
				res.PostOps++
			}
		}
	}
	rate := func(ops int64, w time.Duration) float64 {
		if w <= 0 {
			return 0
		}
		return float64(ops) / w.Seconds()
	}
	res.PreRate = rate(res.PreOps, r.injectAt-r.t0)
	if res.Collapsed {
		res.DegradedRate = rate(res.DegradedOps, end-r.injectAt)
	} else {
		res.DegradedRate = rate(res.DegradedOps, rec-r.injectAt)
		res.PostRate = rate(res.PostOps, end-rec)
	}
	return res
}
