package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/netqueue"
	"repro/internal/trace"
)

// The cluster sweeps that extend the paper's one-client comparison. Each
// registers its flags straight into the core config it will run.

func scale(fs *flag.FlagSet) func(*env) error {
	var cfg core.ScaleConfig
	clients := clientCountsFlag(fs)
	WorkloadsVar(fs, &cfg.Workloads, "seq-write,rand-read,postmark", core.ScaleWorkloads)
	StacksVar(fs, &cfg.Stacks, "all")
	sizeFlag(fs, &cfg.FileSize, 1<<20, 4, 16384, "per-client file size in MB (seq/rand workloads)")
	RangeVar(fs, &cfg.PostMarkFiles, "pm-files", 50, 1, 1<<20, "per-client PostMark pool size")
	RangeVar(fs, &cfg.PostMarkTransactions, "pm-txns", 250, 1, 1<<20, "per-client PostMark transactions")
	seedFlag(fs, &cfg.Seed, 0)
	background := fs.Bool("background", false,
		"hybrid fleet mode: counts beyond -foreground run as calibrated fluid background load")
	RangeVar(fs, &cfg.Foreground, "foreground", 8, 1, MaxMechClients,
		"mechanistic clients per hybrid cell (with -background)")
	return func(e *env) (err error) {
		if cfg.Counts, err = ClientCounts(*clients, *background); err != nil {
			return err
		}
		if !*background {
			cfg.Foreground = 0 // every client mechanistic
		}
		cfg.Metrics, cfg.Tracer = e.metrics, e.tracer
		return show(e.out, core.RenderScaling)(core.RunScaling(cfg))
	}
}

func transport(fs *flag.FlagSet) func(*env) error {
	var cfg core.TransportConfig
	var rttMs, windowKB []float64
	sizeFlag(fs, &cfg.FileSize, 1<<20, 2, 16384, "file size in MB per workload pass")
	chunkFlag(fs, &cfg.ChunkSize)
	NumbersVar(fs, &rttMs, "rtts", "0.2,40", 0, 10000, "RTTs to sweep, in ms (comma separated)")
	ListVar(fs, &cfg.LossRates, "loss", "0,1", "frame loss rates to sweep, in % (comma separated)",
		func(s string) ([]float64, error) { return LossPercents(s, "loss") })
	NumbersVar(fs, &windowKB, "windows", "64", 1, 1<<20,
		"per-connection TCP window caps, in KB (comma separated)")
	NumbersVar(fs, &cfg.Conns, "conns", "1,2,4", 1, MaxConns, "iSCSI MC/S connection counts (comma separated)")
	StacksVar(fs, &cfg.Stacks, "nfsv3,iscsi")
	WorkloadsVar(fs, &cfg.Workloads, "seq-read,seq-write", core.TransportWorkloads)
	seedFlag(fs, &cfg.Seed, 42)
	return func(e *env) error {
		for _, ms := range rttMs {
			cfg.RTTs = append(cfg.RTTs, time.Duration(ms*float64(time.Millisecond)))
		}
		for _, kb := range windowKB {
			cfg.Windows = append(cfg.Windows, int(kb)<<10)
		}
		cfg.Metrics, cfg.Tracer = e.metrics, e.tracer
		return show(e.out, core.RenderTransport)(core.RunTransport(cfg))
	}
}

func replay(fs *flag.FlagSet) func(*env) error {
	var cfg core.ReplayConfig
	profile := fs.String("profile", "both", "built-in trace profile (eecs, campus, both)")
	file := fs.String("file", "", "replay a JSONL op log instead of a built-in profile")
	dump := fs.String("dump", "", "write the selected profile's trace as JSONL to this file and exit")
	clientsFlag(fs, &cfg.Clients, 4, 1, "cluster size (traced client ids fold onto it)")
	RangeVar(fs, &cfg.MaxOps, "ops", 2000, 0, 1<<30, "max ops replayed per trace (0 = all)")
	RangeVar(fs, &cfg.DirMod, "dirs", 64, 1, 1<<20, "directory namespace size (trace dirs fold onto it)")
	StacksVar(fs, &cfg.Stacks, "all")
	TransportsVar(fs, &cfg.Transports, "fluid,tcp")
	wireFlags(fs, &cfg.Conns, &cfg.WindowBytes)
	seedFlag(fs, &cfg.Seed, 42)
	return func(e *env) error {
		switch p := strings.ToLower(strings.TrimSpace(*profile)); p {
		case "both", "all", "":
			cfg.Profiles = core.ReplayProfiles
		case "eecs", "campus":
			cfg.Profiles = []string{p}
		default:
			return fmt.Errorf("bad -profile value %q (eecs, campus, both)", *profile)
		}
		if *dump != "" {
			return dumpProfile(e, cfg.Profiles, *dump)
		}
		if cfg.MaxOps == 0 {
			cfg.MaxOps = -1 // core.ReplayConfig spells "everything" as negative
		}
		if *file != "" {
			f, err := os.Open(*file)
			if err != nil {
				return err
			}
			cfg.Records, err = trace.ReadJSONL(f)
			f.Close()
			if err != nil {
				return err
			}
			if len(cfg.Records) == 0 {
				return fmt.Errorf("op log %s is empty", *file)
			}
			cfg.Profiles, cfg.RecordsName = nil, *file
		}
		cfg.Metrics, cfg.Tracer = e.metrics, e.tracer
		return show(e.out, core.RenderReplay)(core.RunReplay(cfg))
	}
}

// dumpProfile exports a built-in profile's synthesized trace as JSONL.
func dumpProfile(e *env, profiles []string, path string) error {
	if len(profiles) != 1 {
		return errors.New("-dump needs exactly one -profile (eecs or campus)")
	}
	p := trace.EECS()
	if profiles[0] == "campus" {
		p = trace.Campus()
	}
	recs := trace.Synthesize(p)
	err := writeFile(path, func(f *os.File) error { return trace.WriteJSONL(f, recs) })
	if err == nil {
		fmt.Fprintf(e.out, "wrote %d records (%s) to %s\n", len(recs), profiles[0], path)
	}
	return err
}

// writeFile creates path, runs write on it, and closes it, reporting the
// first error.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func wan(fs *flag.FlagSet) func(*env) error {
	var cfg core.WANConfig
	var capacityMB []float64
	clients := clientCountsFlag(fs)
	StacksVar(fs, &cfg.Stacks, "all")
	WorkloadsVar(fs, &cfg.Workloads, "seq-write", core.WANWorkloads)
	TransportsVar(fs, &cfg.Transports, "tcp")
	NumbersVar(fs, &capacityMB, "capacities", "117,12", 0.125, 100000,
		"bottleneck capacities in MB/s (comma separated)")
	ListVar(fs, &cfg.Disciplines, "qdisc", "droptail,drr", "queue disciplines (droptail,drr)",
		Each("qdisc", nil, netqueue.ParseDiscipline))
	ListVar(fs, &cfg.Mixes, "mixes", "lan,straggler",
		"per-client RTT/loss mixes ("+strings.Join(core.WANMixes, ",")+")",
		Each("mixes", nil, func(m string) (string, error) {
			_, err := core.MixClients(m, 1)
			return m, err
		}))
	ScaledVar(fs, &cfg.QueueBytes, "queue", 1<<10, 256, 1, 1<<20, "bottleneck buffer per direction in KB")
	wireFlags(fs, &cfg.Conns, &cfg.WindowBytes)
	sizeFlag(fs, &cfg.FileSize, 1<<10, 1024, 1<<20, "per-client file size in KB")
	seedFlag(fs, &cfg.Seed, 0)
	return func(e *env) (err error) {
		if cfg.Counts, err = Ints(*clients, "clients", 1, MaxMechClients); err != nil {
			return err
		}
		for _, mb := range capacityMB {
			cfg.Capacities = append(cfg.Capacities, int64(mb*1e6))
		}
		cfg.Health, cfg.Metrics, cfg.Tracer = e.health, e.metrics, e.tracer
		return show(e.out, core.RenderWAN)(core.RunWAN(cfg))
	}
}

func faultSweep(fs *flag.FlagSet) func(*env) error {
	var cfg core.FaultConfig
	check := faultPlanFlags(fs, &cfg)
	return func(e *env) error {
		if err := check(); err != nil {
			return err
		}
		cfg.Health, cfg.Metrics, cfg.Tracer = e.health, e.metrics, e.tracer
		return show(e.out, core.RenderFault)(core.RunFault(cfg))
	}
}

func healthSweep(fs *flag.FlagSet) func(*env) error {
	var cfg core.FaultConfig
	check := faultPlanFlags(fs, &cfg)
	slo := fs.String("slo", "", "SLO spec JSON (see docs/HEALTH.md; default: the built-in objectives)")
	interval := fs.Duration("interval", 0, "gauge scrape period (default 100ms, or the spec's interval)")
	fs.DurationVar(&cfg.Cooldown, "cooldown", core.DefaultHealthCooldown,
		"run past the last heal this long so resolves land in-cell")
	return func(e *env) error {
		if err := check(); err != nil {
			return err
		}
		if *interval < 0 || cfg.Cooldown <= 0 {
			return errors.New("bad -interval/-cooldown: durations must be positive")
		}
		spec, err := sloSpec(*slo, *interval)
		if err != nil {
			return err
		}
		cfg.Health, cfg.Metrics, cfg.Tracer = &spec, e.metrics, e.tracer
		return show(e.out, core.RenderHealth)(core.RunHealth(cfg))
	}
}

func contend(fs *flag.FlagSet) func(*env) error {
	var cfg core.ContendConfig
	WorkloadsVar(fs, &cfg.Workloads, "all", core.ContendWorkloads)
	StacksVar(fs, &cfg.Stacks, "all")
	TransportsVar(fs, &cfg.Transports, "fluid,tcp")
	clientsFlag(fs, &cfg.Clients, 4, 2, "cluster size contending on the shared object")
	RangeVar(fs, &cfg.Iters, "iters", 50, 1, 1<<20, "locked operations per client")
	RangeVar(fs, &cfg.RecordSize, "record", 4096, 1, 1<<20, "shared record size in bytes")
	fs.DurationVar(&cfg.PollInterval, "poll", 2*time.Millisecond, "denied-lock poll backoff")
	wireFlags(fs, &cfg.Conns, &cfg.WindowBytes)
	blocksFlag(fs, &cfg.DeviceBlocks)
	seedFlag(fs, &cfg.Seed, 0)
	return func(e *env) error {
		if cfg.PollInterval <= 0 {
			return errors.New("bad -poll: duration must be positive")
		}
		cfg.Metrics, cfg.Tracer = e.metrics, e.tracer
		return show(e.out, core.RenderContention)(core.RunContention(cfg))
	}
}
