package main

// experiments is the table everything derives from: dispatch, `repro help`,
// `repro <name> -h`, the `cmd` tag of the experiment's metric stream, and
// the command table in README.md (a test compares the two).
var experiments = []experiment{
	{"paper", observed, paperExperiment,
		"Tables 2-10, Figures 3-7, Section 7 and the ablations, each selected by flag",
		`Regenerates the paper's results. Each flag selects artefacts, and the
selected ones run in this order:

  -table 2,3     syscall message counts, cold and warm cache
  -table 4       sequential and random reads and writes of a large file (-size)
  -table 5       PostMark completion times and message counts (-scale)
  -table 6,7,8   TPC-C, TPC-H, tar/ls/compile/rm (-scale)
  -table 9,10    client and server CPU utilization, one run (-scale)
  -figure 3,4,5  meta-data update aggregation, directory depth, request size
  -figure 6      completion time against WAN round-trip latency (-size, -step, -loss)
  -figure 7      directory sharing in the EECS-like and Campus-like traces
  -section7      read-only meta-data cache and directory delegation on those traces
  -ablations     commit interval, sync export, write pool bound, atime

-check adds the paper-shape checks of Tables 2-5 and fails the run if one fails.

  repro paper -table 3 -check
  repro paper -figure 6 -size 16 -loss 1
  repro paper -all`},
	{"scale", observed | traced, scale,
		"N clients on one server: throughput, latency, server CPU; hybrid fleets of 10,000+",
		`Runs the multi-client scaling experiment: N concurrent clients drive one
simulated server on each protocol stack, and the table reports aggregate
throughput, per-client latency and server CPU utilization, the cluster
extension of the paper's single-client comparison. With -background, counts
beyond -foreground run as hybrid cells: K mechanistic clients sample the
fleet while the rest become calibrated fluid load, so sweeps reach 10,000+
clients in seconds.

  repro scale -clients 1,2,4 -size 1 -pm-files 10 -pm-txns 50
  repro scale -clients 16,10000 -background -stacks nfsv3,iscsi -workloads seq-write`},
	{"transport", observed | traced, transport,
		"virtual-time TCP under every stack: loss x RTT x window x MC/S connections",
		`Runs the virtual-time TCP transport sweep: every stack's wire traffic rides
the tcpsim model (NFS additionally compares its UDP datagram path) across
{loss rate x RTT x window x connection count}. It is the mechanistic
successor of the Figure 6 experiment: iSCSI scales MC/S connections the way
Kumar et al. measured, and the window axis is the rmem/wmem knob from the
paper's Section 3.1.`},
	{"replay", observed | traced, replay,
		"the Section 7 traces (or any JSONL op log) replayed open-loop through a cluster",
		`Drives the trace-replay engine: the Section 7 workloads (EECS-like and
Campus-like synthesized traces, or any JSONL op log) replayed open-loop
through an N-client cluster on every protocol stack, under both the fluid
wire model and virtual-time TCP. It reports per-op latency percentiles
(p50/p90/p99, nearest-rank), the slowest client's mean, and aggregate
replayed-op throughput.

  repro replay -profile eecs -stacks all
  repro replay -profile campus -dump campus.jsonl   # export trace
  repro replay -file campus.jsonl -clients 8        # replay a log`},
	{"wan", observed | traced | monitored, wan,
		"clients sharing one bottleneck link: capacity x queue discipline x RTT/loss mix",
		`Runs the congestion-coupled cluster sweep: every client's traffic
multiplexes through one capacity-limited bottleneck link (internal/netqueue)
and the sweep crosses {bottleneck capacity x queue discipline x per-client
RTT/loss mix} over client counts on the selected stacks. It is the
physically-coupled counterpart of scale: aggregate throughput plateaus at
the pipe, per-client latency grows with the standing queue, and WAN
stragglers contend for the same buffer as their LAN peers. Configurations
harsh enough to abort transport connections render as "collapse" cells
rather than failing the sweep.

  repro wan -clients 1,2,4 -capacities 12 -mixes lan,straggler
  repro wan -qdisc drr -transports tcp -metrics wan.jsonl`},
	{"fault", observed | traced | monitored, faultSweep,
		"crash, disk failure, link flap, client crash: time to recover, degraded throughput",
		`Runs the failure-and-recovery sweep: deterministic fault injection (server
crash + journal-replay reboot, RAID member failure + contended rebuild, link
partitions, client crash) against every selected stack and transport,
reporting time-to-recover, degraded-mode throughput, and lost/retried op
counts per cell. The same seed yields a byte-identical failure timeline and
metric stream.

  repro fault
  repro fault -families server-crash,disk-fail -stacks nfsv3,iscsi
  repro fault -outage 5s -transports tcp -metrics fault.jsonl`},
	{"health", observed | traced, healthSweep,
		"the SLO monitor scored against each fault: time to detect, false positives and negatives",
		`Runs the detection-quality sweep: for every selected stack and transport it
first runs a fault-free control cell (the fault plan's timeline replayed
without firing, so any alert is a false positive by construction), then
replays each fault family with the SLO health monitor attached, scoring the
alert timeline against the fault's ground truth: time-to-detect,
time-to-resolve, false positives and negatives per cell. The same seed
yields a byte-identical gauge stream and alert timeline.

  repro health
  repro health -families server-crash -stacks nfsv3,iscsi
  repro health -slo objectives.json -metrics health.jsonl`},
	{"contend", observed | traced, contend,
		"clients fighting over one object: NFS byte-range locks against iSCSI reservations",
		`Runs the cross-client sharing sweep: conflict-heavy workloads (lock
ping-pong, locked shared appends, a writer against readers) over one shared
object per stack, reporting locked-op throughput, lock grants and denied
polls, and per-client wait. NFS cells exercise the server's byte-range lock
manager; iSCSI cells exercise whole-LUN persistent reservations.

  repro contend
  repro contend -workloads pingpong,append -stacks nfsv3,iscsi
  repro contend -clients 8 -iters 100 -metrics contend.jsonl`},
	{"trace", tracesAlways, traceCell,
		"one traced cell: where each op's virtual time went, layer by layer",
		`Runs one traced {stack x transport x workload} cell and shows where its
operations spent their virtual time: every syscall becomes a span tree
crossing the cache, RPC/iSCSI, transport, link, CPU and disk layers, and the
critical-path analyzer bills each nanosecond of each op to exactly one of
them. The table reports per-layer billed time (mean/p50/p99 across ops) with
each layer's share of total latency, the mechanized version of the paper's
Section 5/6 packet-trace breakdowns.

  repro trace -stack nfsv3 -workload seq-read -trace spans.jsonl
  repro trace -stack iscsi -conns 4 -chrome trace.json
  repro trace -from spans.jsonl -chrome trace.json   # re-analyze

-trace writes the validated span JSONL (docs/TRACING.md); -chrome writes
Chrome trace_event JSON loadable in Perfetto or chrome://tracing; -from
re-analyzes an existing JSONL stream (also schema-validating it) instead of
running a cell.`},
}
