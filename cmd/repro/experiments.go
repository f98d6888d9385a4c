package main

// experiments is the table everything derives from: dispatch, `repro help`,
// `repro <name> -h`, the `cmd` tag of the experiment's metric stream, and
// the command table in README.md (a test compares the two).
var experiments = []experiment{
	{"microbench", observed, microbench,
		"Tables 2, 3 (syscall message counts, cold/warm) and Figures 3, 4, 5 (batching, depth, size)",
		`Regenerates the paper's micro-benchmark results: Tables 2 and 3 (cold- and
warm-cache message counts for the Table 1 system calls), Figure 3 (iSCSI
meta-data update aggregation), Figure 4 (directory-depth sensitivity) and
Figure 5 (request-size sensitivity).

  repro microbench -table 2         # cold-cache syscall table
  repro microbench -table 3 -check  # warm-cache table, checked against the paper's claims
  repro microbench -figure 3        # batching curves (4: depth, 5: size)
  repro microbench -all             # everything`},
	{"macrobench", observed, macrobench,
		"Tables 6-10 (TPC-C, TPC-H, tar/ls/compile/rm, client and server CPU)",
		`Regenerates the database and shell macro-benchmarks: Table 6 (TPC-C),
Table 7 (TPC-H), Table 8 (tar/ls/compile/rm) and the CPU utilization
Tables 9 and 10.

  repro macrobench -bench tpcc      # or tpch, kernel
  repro macrobench -cpu
  repro macrobench -all`},
	{"postmark", observed, postmark,
		"Table 5 (PostMark completion times and message counts)",
		`Regenerates Table 5: PostMark completion times and message counts at pool
sizes of 1,000, 5,000 and 25,000 files with 100,000 transactions, on NFS v3
and iSCSI.`},
	{"seqrand", observed, seqrand,
		"Table 4 (sequential and random reads and writes of a large file)",
		`Regenerates Table 4: completion times, message counts and bytes transferred
for sequential and random reads and writes of a large file over NFS v3 and
iSCSI.`},
	{"latency", observed, latency,
		"Figure 6 (completion time against wide-area round-trip latency)",
		`Regenerates Figure 6: the NISTNet wide-area experiment sweeping round-trip
latency from 10 to 90 ms and measuring sequential and random read/write
completion times on NFS v3 and iSCSI. -loss injects frame loss on the
emulated WAN path, extending the sweep to lossy long-haul links (see
transport for the full transport cross-product).`},
	{"ablate", observed, ablate,
		"the four ablations behind the results (commit interval, sync export, write pool, atime)",
		`Runs the ablation experiments that isolate the causes behind the paper's
results: journal commit interval (update aggregation window), sync vs. async
export (durability pricing), the NFS client's async-write pool bound
(pseudo-synchronous degeneration), and access-time maintenance.`},
	{"tracesim", observed, tracesim,
		"Figure 7 (directory sharing in the traces) and the Section 7 enhancements",
		`Regenerates the paper's Section 7 results: Figure 7 (directory sharing
characteristics of the EECS-like and Campus-like traces) and the trace-driven
evaluation of the proposed enhancements, the strongly-consistent read-only
meta-data cache (reduction and callback ratio versus cache size) and
directory delegation.

  repro tracesim -figure7
  repro tracesim -enhance
  repro tracesim -all`},
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
