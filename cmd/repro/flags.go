package main

import (
	"errors"
	"flag"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// The flags more than one experiment takes are each registered here, once,
// with one range, into the config field they set; -stacks, -transports and
// -workloads are flagvalues.go's.

// wireFlags registers the pair every TCP-capable experiment takes.
func wireFlags(fs *flag.FlagSet, conns, windowBytes *int) {
	RangeVar(fs, conns, "conns", 1, 1, MaxConns, "iSCSI MC/S connection count under TCP")
	ScaledVar(fs, windowBytes, "window", 1<<10, 64, 1, 1<<20, "per-connection TCP window cap in KB")
}

func blocksFlag(fs *flag.FlagSet, p *int64) {
	RangeVar(fs, p, "blocks", 16384, 1024, 1<<30, "volume size in 4 KB blocks")
}

func seedFlag(fs *flag.FlagSet, p *int64, def int64) {
	fs.Int64Var(p, "seed", def, "simulation seed (identical seeds give byte-identical output)")
}

// clientsFlag is the scalar -clients: one cluster of that many machines.
func clientsFlag(fs *flag.FlagSet, p *int, def, min int, usage string) {
	RangeVar(fs, p, "clients", def, min, MaxMechClients, usage)
}

// clientCountsFlag is the list -clients: one cell per count. The counts are
// checked after parsing, because scale's bound depends on -background.
func clientCountsFlag(fs *flag.FlagSet) *string {
	return fs.String("clients", "1,2,4,8,16", "comma-separated client counts")
}

func chunkFlag(fs *flag.FlagSet, p *int) {
	RangeVar(fs, p, "chunk", 4096, 1, 1<<20, "per-syscall unit in bytes")
}

// sizeFlag is a file size of at least one unit (1<<20: MB, 1<<10: KB).
func sizeFlag(fs *flag.FlagSet, bytes *int64, unit, def, max int64, usage string) {
	ScaledVar(fs, bytes, "size", unit, def, 1, max, usage)
}

func scaleFlag(fs *flag.FlagSet, usage string) *float64 {
	scale := new(float64)
	RangeVar(fs, scale, "scale", 1, 0.01, 100, usage)
	return scale
}

// lossFlag is the scalar -loss, in percent.
func lossFlag(fs *flag.FlagSet) *float64 {
	percent := new(float64)
	RangeVar(fs, percent, "loss", 0, 0, MaxLossPercent, "frame loss rate in % (0..50)")
	return percent
}

// faultPlanFlags registers the cluster and fault timeline `fault` and
// `health` share into the core.FaultConfig both run, and returns the check
// to run once the flags are parsed.
func faultPlanFlags(fs *flag.FlagSet, plan *core.FaultConfig) (check func() error) {
	ListVar(fs, &plan.Families, "families", "all",
		"fault families (all or server-crash,disk-fail,link-flap,client-crash)",
		Each("families", fault.Families, fault.ParseFamily))
	StacksVar(fs, &plan.Stacks, "all")
	TransportsVar(fs, &plan.Transports, "fluid,tcp")
	clientsFlag(fs, &plan.Clients, 2, 1, "cluster size (a victim and witnesses)")
	fs.DurationVar(&plan.Warmup, "warmup", time.Second, "fault-free lead-in before the first inject")
	fs.DurationVar(&plan.Outage, "outage", 2*time.Second, "inject-to-heal distance per fault")
	RangeVar(fs, &plan.Flaps, "flaps", 3, 1, 64, "link-flap cycle count")
	RangeVar(fs, &plan.Victim, "victim", 0, 0, MaxMechClients, "victim client / array member index")
	wireFlags(fs, &plan.Conns, &plan.WindowBytes)
	blocksFlag(fs, &plan.DeviceBlocks)
	seedFlag(fs, &plan.Seed, 0)
	return func() error {
		if plan.Warmup <= 0 || plan.Outage <= 0 {
			return errors.New("bad -warmup/-outage: durations must be positive")
		}
		return nil
	}
}
