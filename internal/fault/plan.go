// Package fault is the failure-and-recovery axis of the reproduction: a
// virtual-time fault injector that schedules failure/repair events
// against a running testbed.Cluster and measures time-to-recover,
// degraded-mode throughput, and lost/retried operations.
//
// The paper compares NFS and iSCSI on the happy path; this package asks
// the operational follow-up — what happens to each stack when the
// server machine, a disk, the network, or a client fails mid-workload.
// All four fault families exercise recovery machinery the layers
// already have, rather than bolted-on special cases: an ext3 journal
// replay on remount, SunRPC RTO retransmission ladders, TCP connection
// resets and reconnects, iSCSI session re-login, and RAID-5 degraded
// reads plus rebuild traffic that competes with the foreground through
// the same disk arms.
//
// A Plan is a seeded schedule of inject/heal events on the virtual
// timeline; Run keys it into the same scheduler that interleaves the
// client drivers, so a given seed yields byte-identical failure
// timelines and metric streams on every run.
package fault

import (
	"fmt"
	"math/rand"
	"time"
)

// Family names one fault family.
type Family string

// The four fault families.
const (
	// ServerCrash powers the server off mid-workload and reboots it at
	// the heal event: the NFS export's journal replays on remount, and
	// iSCSI targets lose sessions and reset their TCP connections.
	ServerCrash Family = "server-crash"
	// DiskFail kills one member of the shared RAID-5 array; reads run
	// degraded (parity reconstruction) until the heal event starts a
	// rebuild whose traffic contends with the foreground workload.
	DiskFail Family = "disk-fail"
	// LinkFlap partitions every client's path to the server (and the
	// shared bottleneck queue, when one is configured) for each outage
	// window: RPC ladders back off, TCP connections break, and the
	// recovery burst drains through the queue at the heal instant.
	LinkFlap Family = "link-flap"
	// ClientCrash powers one client off and reboots it at the heal
	// event: an iSCSI client's ext3 journal replays on the LUN, an NFS
	// client reconnects and remounts while the server carries on.
	ClientCrash Family = "client-crash"
)

// Families lists every fault family in display order.
var Families = []Family{ServerCrash, DiskFail, LinkFlap, ClientCrash}

// ParseFamily validates a family name.
func ParseFamily(s string) (Family, error) {
	for _, f := range Families {
		if string(f) == s {
			return f, nil
		}
	}
	return "", fmt.Errorf("unknown fault family %q (have server-crash, disk-fail, link-flap, client-crash)", s)
}

// Action is what an event does.
type Action int

// Event actions.
const (
	// Inject introduces the fault.
	Inject Action = iota
	// Heal starts repair (reboot, rebuild, partition end).
	Heal
)

// String names the action.
func (a Action) String() string {
	if a == Inject {
		return "inject"
	}
	return "heal"
}

// Event is one scheduled fault transition. At is an offset from the
// start of the measured window; the runner anchors it on the cluster's
// virtual timeline.
type Event struct {
	At     time.Duration
	Action Action
}

// flapGap is the up-time between consecutive flaps of a LinkFlap plan.
const flapGap = 500 * time.Millisecond

// PlanConfig shapes a generated plan.
type PlanConfig struct {
	// Warmup is the fault-free lead-in before the first inject
	// (default 1s) — it provides the baseline throughput window.
	Warmup time.Duration
	// Outage is each inject-to-heal distance (default 2s).
	Outage time.Duration
	// Flaps is the number of inject/heal cycles for LinkFlap (default
	// 3); other families always run one cycle.
	Flaps int
	// Jitter is the maximum seeded perturbation added to every event
	// gap (default 100ms), so plans with different seeds place faults
	// at different — but reproducible — instants.
	Jitter time.Duration
	// Victim selects the crashed client (ClientCrash) and the failed
	// array member (DiskFail, modulo the member count). Default 0.
	Victim int
	// Seed drives the jitter.
	Seed int64
}

func (c *PlanConfig) fill() {
	if c.Warmup <= 0 {
		c.Warmup = time.Second
	}
	if c.Outage <= 0 {
		c.Outage = 2 * time.Second
	}
	if c.Flaps <= 0 {
		c.Flaps = 3
	}
	if c.Jitter < 0 {
		c.Jitter = 0
	} else if c.Jitter == 0 {
		c.Jitter = 100 * time.Millisecond
	}
}

// Plan is a deterministic schedule of fault events for one family.
type Plan struct {
	Family Family
	Victim int
	Events []Event
}

// NewPlan generates the seeded inject/heal schedule for one family.
// The same (family, config) always yields the same plan.
func NewPlan(f Family, cfg PlanConfig) (Plan, error) {
	if _, err := ParseFamily(string(f)); err != nil {
		return Plan{}, err
	}
	if cfg.Victim < 0 {
		return Plan{}, fmt.Errorf("fault: negative victim %d", cfg.Victim)
	}
	cfg.fill()
	// Decorrelate families under one seed without letting the family
	// change how many draws the others consume.
	h := int64(0)
	for _, b := range []byte(f) {
		h = h*131 + int64(b)
	}
	rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + h))
	jit := func() time.Duration {
		if cfg.Jitter == 0 {
			return 0
		}
		return time.Duration(rng.Int63n(int64(cfg.Jitter)))
	}
	cycles := 1
	if f == LinkFlap {
		cycles = cfg.Flaps
	}
	p := Plan{Family: f, Victim: cfg.Victim}
	t := cfg.Warmup + jit()
	for i := 0; i < cycles; i++ {
		if i > 0 {
			t += flapGap + jit()
		}
		p.Events = append(p.Events, Event{At: t, Action: Inject})
		t += cfg.Outage + jit()
		p.Events = append(p.Events, Event{At: t, Action: Heal})
	}
	return p, nil
}

// Inject returns the first inject offset — the start of the degraded
// window.
func (p Plan) Inject() time.Duration { return p.Events[0].At }

// Heal returns the last heal offset — repair begins here; the service
// is recovered once it completes.
func (p Plan) Heal() time.Duration { return p.Events[len(p.Events)-1].At }

// String renders the timeline compactly ("server-crash inject@1.05s
// heal@3.1s").
func (p Plan) String() string {
	s := string(p.Family)
	for _, e := range p.Events {
		s += fmt.Sprintf(" %s@%v", e.Action, e.At)
	}
	return s
}
