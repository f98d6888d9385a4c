// Command repro is the one binary that builds a simulator: the paper's
// tables and figures (one experiment, paper) and every sweep that extends
// them are experiments,
//
//	repro <experiment> [flags]
//	repro help                 # the experiments, one line each
//	repro <experiment> -h      # what it runs, and its flags
//
// The experiments are rows of one table (experiments.go); dispatch and both
// help forms derive from it. Everything a run shares — the -metrics stream,
// the CPU and heap profiles, the span file, the health monitor — is opened
// and closed by one envelope on every way out, so a failed sweep still
// leaves the events of its completed cells on disk. Identical invocations
// give byte-identical output. Streams are read back by cmd/metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/tracing"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole CLI behind an exit code: 0, 1 for a failed run, 2 for a
// command line that names no runnable experiment.
func run(args []string, stdout, stderr io.Writer) int {
	name, arg := "repro", ""
	if len(args) > 0 {
		arg = args[0]
	}
	var err error
	switch x := lookup(arg); {
	case x != nil:
		name += " " + arg
		err = x.run(args[1:], stdout)
	case arg == "help" || arg == "-h" || arg == "--help":
		listing(stdout)
	case arg == "":
		err = usageError{errors.New("no experiment named")}
	default:
		err = usageError{fmt.Errorf("unknown experiment %q", arg)}
	}
	if err == nil {
		return 0
	}
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	if errors.As(err, &usageError{}) {
		fmt.Fprintf(stderr, "run '%s -h' for usage\n", name)
		return 2
	}
	return 1
}

// usageError marks a command line that cannot be run as given (exit 2).
type usageError struct{ error }

// experiment is one row of the table: what the user types, what help says
// about it, and how it registers its flags and runs.
type experiment struct {
	name string
	with groups // which of the envelope's flags it takes
	// setup registers the experiment's own flags on fs and returns the
	// function that runs it once they are parsed.
	setup    func(fs *flag.FlagSet) func(*env) error
	synopsis string // its line of `repro help` and of README's table
	help     string // printed above the flags by `repro <name> -h`
}

// groups selects the envelope's flag groups an experiment is offered.
type groups int

const (
	observed     groups = 1 << iota // -metrics, -cpuprofile, -memprofile
	traced                          // -trace, -trace-sample, -trace-slow
	monitored                       // -health, -health-interval
	tracesAlways                    // the -trace flags, for the experiment that exists to trace
)

// env is what the envelope hands a running experiment.
type env struct {
	out     io.Writer
	metrics *metrics.Recorder // nil without -metrics
	tracer  *tracing.Tracer   // nil without -trace
	health  *health.Config    // nil without -health
	trace   *Trace
}

// show renders what a core.Run* call returned, or passes its error on:
// show(e.out, core.RenderFault)(core.RunFault(cfg)).
func show[T any](w io.Writer, render func(io.Writer, T)) func(T, error) error {
	return func(result T, err error) error {
		if err == nil {
			render(w, result)
		}
		return err
	}
}

func lookup(name string) *experiment {
	for i := range experiments {
		if experiments[i].name == name {
			return &experiments[i]
		}
	}
	return nil
}

// listing prints the experiment table.
func listing(w io.Writer) {
	fmt.Fprintln(w, "usage: repro <experiment> [flags]    (repro <experiment> -h lists the flags)")
	fmt.Fprintln(w)
	for _, x := range experiments {
		fmt.Fprintf(w, "  %-11s %s\n", x.name, x.synopsis)
	}
}

// run is the envelope: it parses the command line, opens what the shared
// flags ask for, runs the experiment, and closes all of it again whether
// the run succeeded or not.
func (x *experiment) run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("repro "+x.name, flag.ContinueOnError)
	fs.SetOutput(io.Discard) // run prints the error once; -h is handled below
	metricsPath, prof, hlt := new(string), &Profile{}, &Health{}
	var trc *Trace
	if x.with&observed != 0 {
		fs.StringVar(metricsPath, "metrics", "", "write JSONL telemetry events to this file (see docs/METRICS.md)")
		prof = ProfileFlags(fs)
	}
	if x.with&(traced|tracesAlways) != 0 {
		trc = TraceFlags(fs, x.with&tracesAlways != 0)
	}
	if x.with&monitored != 0 {
		hlt = HealthFlags(fs)
	}
	body := x.setup(fs)

	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		fmt.Fprintf(stdout, "usage: repro %s [flags]\n\n%s\n\nFlags:\n", x.name, x.help)
		fs.SetOutput(stdout)
		fs.PrintDefaults()
		return nil
	case err != nil:
		return usageError{err}
	case fs.NArg() > 0:
		return usageError{fmt.Errorf("unexpected argument %q (experiments take flags only)", fs.Arg(0))}
	}

	e := &env{out: stdout, trace: trc}
	if e.tracer, err = trc.Tracer(); err != nil {
		return err
	}
	if e.health, err = hlt.Config(*metricsPath); err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	sink, closeSink, err := metrics.OpenFileSink(*metricsPath)
	if err != nil {
		return errors.Join(err, prof.Stop())
	}
	defer func() {
		serr := sink.Err()
		if cerr := closeSink(); serr == nil {
			serr = cerr
		}
		if serr != nil {
			serr = fmt.Errorf("metrics: %w", serr)
		}
		err = errors.Join(err, trc.Write(), serr, prof.Stop())
	}()
	e.metrics = metrics.NewRecorder(sink, metrics.Tags{"cmd": x.name})
	return body(e)
}
