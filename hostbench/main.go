// Command hostbench is the repository's benchmark: it measures the
// simulator's host cost — what a user waits for and what it allocates —
// on six workloads, driving the simulator through its public functions
// only, and checks on every pass that the simulated results have not
// moved. README.md in this directory describes the workloads, the metrics
// and how the layers interact; BENCHMARK.json at the repository root
// declares them to the driver.
//
//	hostbench -workload postmark              end-to-end metrics, tracing off
//	hostbench -workload postmark -trace 1     per-layer metrics
//	hostbench                                 every workload in turn
//	hostbench -aa                             the end-to-end set twice, compared
//	hostbench -update-pin                     rewrite testdata/sim_pin.json
//
// Closed loop: one process, one driver goroutine, work per pass fixed;
// the time budget only decides how many passes are sampled.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// processStart anchors setup_s at (nearly) process start.
var processStart = time.Now()

// setupRepeats is how often a run sets up (input generation plus one
// untimed warm-up pass); setup_s is the median.
const setupRepeats = 3

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	aa        bool
	updatePin bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: each in turn)")
	fs.Int64Var(&o.seed, "seed", pinSeed, "seed for every workload, loss and fault-plan input")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long one run measures")
	fs.IntVar(&o.trace, "trace", 0, "1 = the traced run (per-layer metrics), 0 = end-to-end metrics")
	fs.BoolVar(&o.aa, "aa", false, "run the end-to-end set twice and compare the two against the bounds")
	fs.BoolVar(&o.updatePin, "update-pin", false, "rewrite "+pinPath+" from this run (run from the repository root)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "hostbench: bad arguments; see -h")
		return 2
	}
	if o.aa {
		return runAA(o, stderr)
	}
	selected := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "hostbench: unknown workload %q\n", o.workload)
			return 2
		}
		selected = []workloadSpec{w}
	}
	pin, err := loadPin(pinJSON)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	if o.updatePin {
		if o.seed != pinSeed || o.workload != "" {
			fmt.Fprintf(stderr, "hostbench: -update-pin rewrites every workload at seed %d\n", pinSeed)
			return 2
		}
		pin = pinFile{}
	}

	code := 0
	refs := map[string][]simValue{}
	for i, w := range selected {
		start := processStart
		if i > 0 {
			start = time.Now()
		}
		r := &runner{w: w, seed: o.seed, stderr: stderr, setups: setupRepeats, minPasses: w.minPasses}
		if o.seed == pin.Seed {
			r.pinned, r.usePin = pin.Workloads[w.name], true
		}
		var res result
		if o.trace == 1 {
			res, err = tracedRun(r, o.seconds)
		} else {
			res, err = endToEndRun(r, o.seconds, start)
		}
		if err != nil {
			fmt.Fprintf(stderr, "hostbench: %s: %v\n", w.name, err)
			return 1
		}
		refs[w.name] = r.first
		printTable(stderr, w.name, res)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "hostbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct && !o.updatePin {
			code = 1
		}
	}
	if o.updatePin {
		if err := writePin(pinPath, refs); err != nil {
			fmt.Fprintln(stderr, "hostbench:", err)
			return 1
		}
		fmt.Fprintln(stderr, "hostbench: wrote", pinPath)
	}
	return code
}

// runner runs passes of one workload and checks each: no error, no
// collapsed cell, paper shapes hold, and the simulated values equal the
// pin (first pass, pinned seed only) and the run's first pass (always).
type runner struct {
	w      workloadSpec
	seed   int64
	pinned map[string]float64
	usePin bool
	stderr io.Writer
	// setups and minPasses size the run (tests shrink them to 1).
	setups, minPasses int

	first             []simValue
	attempted, failed int
	reported          int
}

// pass runs one pass; configure, when non-nil, attaches the traced run's
// instruments before it starts.
func (r *runner) pass(configure func(*pass)) (*pass, error) {
	p := &pass{seed: r.seed}
	if configure != nil {
		configure(p)
	}
	if err := r.w.run(p); err != nil {
		return nil, err
	}
	p.check(true, "pass completed")
	got, err := p.simValues()
	if err != nil {
		return nil, err
	}
	if r.first == nil {
		r.first = got
		if r.usePin {
			comparePin(p, r.pinned, got)
		}
	} else {
		compareFirst(p, r.first, got)
	}
	r.attempted += p.checks
	r.failed += p.fails
	for _, f := range p.failures {
		if r.reported < 20 {
			fmt.Fprintf(r.stderr, "hostbench: %s: FAILED %s\n", r.w.name, f)
			r.reported++
		}
	}
	return p, nil
}

func (r *runner) result(m map[string]metricValue) result {
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// passSample is what a series of timed passes contributes to the
// end-to-end metrics.
type passSample struct {
	regions      [][]float64 // per pass, the wall time of each timed region, ms
	allocBytes   uint64
	allocObjects uint64
	sysBytes     uint64
	last         *pass
}

// add appends one pass; every pass must have the first one's regions.
func (s *passSample) add(p *pass) error {
	if len(s.regions) > 0 && len(p.regions) != len(s.regions[0]) {
		return fmt.Errorf("pass has %d timed regions, the first had %d", len(p.regions), len(s.regions[0]))
	}
	s.last = p
	s.regions = append(s.regions, p.regions)
	s.allocBytes += p.allocBytes
	s.allocObjects += p.allocObjects
	s.sysBytes = p.sysBytes
	return nil
}

// passMs is the series' pass time: per timed region the median over the
// passes, summed over the regions. The sandbox's noise comes in bursts of
// about a second; a burst lands in every pass's total but in a minority
// of any one region's samples, so this is steadier than the median of the
// totals and equal to it for a one-region pass.
func (s *passSample) passMs() float64 {
	var sum float64
	for k := range s.regions[0] {
		col := make([]float64, len(s.regions))
		for i, r := range s.regions {
			col[i] = r[k]
		}
		sum += median(col)
	}
	return sum
}

// totals returns each pass's summed region time.
func (s *passSample) totals() []float64 {
	out := make([]float64, len(s.regions))
	for i, r := range s.regions {
		for _, ms := range r {
			out[i] += ms
		}
	}
	return out
}

// timedPasses adds passes to s until budget is spent, and at least min.
func (r *runner) timedPasses(s *passSample, budget time.Duration, min int, configure func(*pass)) error {
	start := time.Now()
	for n := 0; n < min || time.Since(start) < budget; n++ {
		p, err := r.pass(configure)
		if err != nil {
			return err
		}
		if err := s.add(p); err != nil {
			return err
		}
	}
	return nil
}

// endToEndRun is the untraced run: no span, no decorated client, no
// recorder, MemProfileRate and the CPU profiler untouched.
//
// start is when the run's first set-up began: process start, so that
// runtime and package initialisation count as set-up.
func endToEndRun(r *runner, seconds float64, start time.Time) (result, error) {
	setups := make([]float64, 0, r.setups)
	var s passSample
	for i := 0; i < r.setups; i++ {
		if i > 0 {
			start = time.Now()
		}
		p, err := r.pass(nil)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i > 0 {
			// Everything is warm after the first pass, so the repeated
			// set-ups' passes are samples too: for paper-regen, whose
			// pass takes four seconds, that is a third of them.
			if err := s.add(p); err != nil {
				return result{}, err
			}
		}
	}
	if err := r.timedPasses(&s, time.Duration(seconds*float64(time.Second)), r.minPasses, nil); err != nil {
		return result{}, err
	}
	n := float64(len(s.regions))
	totals := s.totals()
	m := newMetrics(endToEnd)
	set(m, "setup_s", median(setups))
	set(m, "pass_ms", s.passMs())
	set(m, "alloc_mb_per_pass", float64(s.allocBytes)/n/1e6)
	set(m, "kallocs_per_pass", float64(s.allocObjects)/n/1e3)
	set(m, "peak_sys_mb", float64(s.sysBytes)/1e6)
	fmt.Fprintf(r.stderr, "hostbench: %s: %d sampled passes of %d regions, totals min %.1f / median %.1f / max %.1f ms; %d set-ups %.2f s\n",
		r.w.name, len(totals), len(s.regions[0]), quantile(totals, 0), median(totals), quantile(totals, 1), len(setups), setups)
	return r.result(m), nil
}

// printTable prints every metric by name and unit, for people.
func printTable(w io.Writer, workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: correct=%v checks=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		mv := res.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, mv.Value, mv.Unit)
	}
}
