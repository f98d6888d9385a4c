package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// The paper's own results — Tables 2-10, Figures 3-7, Section 7 and the
// ablations — are one experiment whose flags select rows of this table.
// Selected rows run in table order, whatever order the flags name them in.
var artefacts = []struct {
	name string // what selects it: "table N", "figure N", "section7", "ablations"
	run  func(*paper) error
}{
	{"table 2", func(p *paper) error {
		return checked(p, syscallTable("Table 2: network message counts, cold cache"),
			core.CheckTable2Shapes)(core.RunTable2(p.opts))
	}},
	{"table 3", func(p *paper) error {
		return checked(p, syscallTable("Table 3: network message counts, warm cache"),
			core.CheckTable3Shapes)(core.RunTable3(p.opts))
	}},
	{"table 4", func(p *paper) error {
		return checked(p, core.RenderTable4, core.CheckTable4Shapes)(core.RunTable4(p.opts, p.size))
	}},
	{"table 5", func(p *paper) error {
		return checked(p, core.RenderTable5, core.CheckTable5Shapes)(core.RunTable5(p.opts, p.scale))
	}},
	{"table 6", func(p *paper) error { return show(p.out, tpc("Table 6:", "tpmC"))(core.RunTable6(p.opts, p.scale)) }},
	{"table 7", func(p *paper) error { return show(p.out, tpc("Table 7:", "QphH"))(core.RunTable7(p.opts, p.scale)) }},
	{"table 8", func(p *paper) error { return show(p.out, core.RenderTable8)(core.RunTable8(p.opts, p.scale)) }},
	{"table 9", func(p *paper) error { // and Table 10: one run
		return show(p.out, core.RenderCPUTables)(core.RunTable9And10(p.opts, p.scale))
	}},
	{"figure 3", func(p *paper) error { return show(p.out, core.RenderFigure3)(core.RunFigure3(p.opts, nil)) }},
	{"figure 4", func(p *paper) error { return show(p.out, core.RenderFigure4)(core.RunFigure4(p.opts, nil)) }},
	{"figure 5", func(p *paper) error { return show(p.out, core.RenderFigure5)(core.RunFigure5(p.opts, nil)) }},
	{"figure 6", figure6},
	{"figure 7", figure7},
	{"section7", section7},
	{"ablations", ablations},
}

// paper is one run of the experiment: the envelope, the flags the
// artefacts share, and what they hand on to each other.
type paper struct {
	*env
	opts   core.Options
	scale  core.MacroScale // Tables 5-10
	size   int64           // Table 4 and Figure 6, in bytes
	step   int             // Figure 6's RTT step, in ms
	loss   float64         // Figure 6's frame loss, in %
	check  bool
	failed int // shape checks failed so far

	profiles []trace.Profile // Figure 7 and Section 7's traces, synthesized once
	traces   [][]trace.Record
}

func paperExperiment(fs *flag.FlagSet) func(*env) error {
	var tables, figures []int
	p := &paper{}
	NumbersVar(fs, &tables, "table", "", 2, 10, "tables to regenerate, comma separated (2..10; 9 and 10 are one run)")
	NumbersVar(fs, &figures, "figure", "", 3, 7, "figures to regenerate, comma separated (3..7)")
	section7 := fs.Bool("section7", false, "the Section 7 meta-data cache and directory delegation results")
	ablation := fs.Bool("ablations", false, "the four ablations")
	all := fs.Bool("all", false, "every table, figure, Section 7 and the ablations")
	fs.BoolVar(&p.check, "check", false, "run the paper-shape checks of the selected Tables 2-5")
	scale := scaleFlag(fs, "scale factor of Tables 5-10 (1.0 = paper)")
	sizeFlag(fs, &p.size, 1<<20, 128, 16384, "file size in MB of Table 4 and Figure 6 (paper: 128)")
	RangeVar(fs, &p.step, "step", 20, 1, 80, "Figure 6's RTT step in ms (paper plots 10ms steps; 1..80)")
	loss := lossFlag(fs)
	return func(e *env) error {
		picked := map[string]bool{"section7": *section7, "ablations": *ablation}
		for _, n := range tables {
			picked["table "+strconv.Itoa(min(n, 9))] = true
		}
		for _, n := range figures {
			picked["figure "+strconv.Itoa(n)] = true
		}
		p.env, p.opts, p.scale, p.loss = e, core.Options{Metrics: e.metrics}, core.MacroScale(*scale), *loss
		ran := false
		for _, a := range artefacts {
			if *all || picked[a.name] {
				if err := a.run(p); err != nil {
					return err
				}
				ran = true
			}
		}
		switch {
		case !ran:
			return usageError{errors.New("pick one of -table, -figure, -section7, -ablations, -all")}
		case p.failed > 0:
			return fmt.Errorf("%d conformance checks failed", p.failed)
		}
		return nil
	}
}

// checked is show for a table with shape checks: with -check, the checks
// are printed under it and their failures counted.
func checked[R any](p *paper, render func(io.Writer, []R), shapes func([]R) []core.ShapeCheck) func([]R, error) error {
	return show(p.out, func(w io.Writer, rows []R) {
		render(w, rows)
		if p.check {
			p.failed += core.RenderChecks(w, "Conformance with the paper's claims:", shapes(rows))
		}
	})
}

func syscallTable(title string) func(io.Writer, []core.SyscallRow) {
	return func(w io.Writer, rows []core.SyscallRow) { core.RenderSyscallTable(w, title, rows) }
}

func tpc(title, unit string) func(io.Writer, core.TPCRow) {
	return func(w io.Writer, row core.TPCRow) {
		fmt.Fprintln(w, title)
		core.RenderTPC(w, row, unit)
	}
}

func figure6(p *paper) error {
	var rtts []time.Duration
	for ms := 10; ms <= 90; ms += p.step {
		rtts = append(rtts, time.Duration(ms)*time.Millisecond)
	}
	opts := p.opts
	opts.LossRate = p.loss / 100
	points, err := core.RunFigure6(opts, p.size, rtts)
	if err != nil {
		return err
	}
	if p.loss > 0 {
		fmt.Fprintf(p.out, "Figure 6 with %.1f%% frame loss injected on the WAN path\n\n", p.loss)
	}
	core.RenderFigure6(p.out, points)
	return nil
}

// synthesize makes the two Section 7 traces the first time an artefact
// needs them, and returns the recorder their analyses report to.
func (p *paper) synthesize() *metrics.Recorder {
	if p.traces == nil {
		p.profiles = []trace.Profile{trace.EECS(), trace.Campus()}
		for _, pr := range p.profiles {
			p.traces = append(p.traces, trace.Synthesize(pr))
		}
	}
	return p.metrics.With(metrics.Tags{"experiment": "tracesim"})
}

func figure7(p *paper) error {
	rec := p.synthesize()
	for i, pr := range p.profiles {
		pts := trace.AnalyzeSharing(p.traces[i], nil)
		fmt.Fprint(p.out, trace.FormatSharing(pr.Name, pts))
		// Whole-trace analyses carry the sharing interval in virtual time
		// and the profile in tags.
		for _, pt := range pts {
			rec.Point(pt.Interval, metrics.SubsysRun,
				metrics.Tags{"analysis": "sharing", "profile": pr.Name},
				map[string]float64{"read_one": pt.ReadOne, "write_one": pt.WriteOne,
					"read_multiple": pt.ReadMultiple, "written_multiple": pt.WrittenMultiple})
		}
	}
	return nil
}

func section7(p *paper) error {
	rec := p.synthesize()
	fmt.Fprintln(p.out, "Section 7: strongly-consistent read-only meta-data cache")
	fmt.Fprintf(p.out, "%-8s %-10s %12s %12s\n", "trace", "cache", "reduction", "callbacks/msg")
	for i, pr := range p.profiles {
		for _, size := range []int{64, 256, 1024, 4096} {
			r := trace.SimulateMetadataCache(p.traces[i], size)
			fmt.Fprintf(p.out, "%-8s %-10d %11.1f%% %12.4f\n", pr.Name, size, r.Reduction*100, r.CallbackRatio)
			rec.Point(0, metrics.SubsysRun,
				metrics.Tags{"analysis": "metadata-cache", "profile": pr.Name, "cache": strconv.Itoa(size)},
				map[string]float64{"reduction": r.Reduction, "callback_ratio": r.CallbackRatio})
		}
	}
	fmt.Fprintln(p.out, "Section 7: directory delegation")
	fmt.Fprintf(p.out, "%-8s %12s %12s\n", "trace", "reduction", "recalls/msg")
	for i, pr := range p.profiles {
		r := trace.SimulateDelegation(p.traces[i])
		fmt.Fprintf(p.out, "%-8s %11.1f%% %12.4f\n", pr.Name, r.MessageReduction*100, r.RecallRatio)
		rec.Point(0, metrics.SubsysRun,
			metrics.Tags{"analysis": "delegation", "profile": pr.Name},
			map[string]float64{"reduction": r.MessageReduction, "recall_ratio": r.RecallRatio})
	}
	return nil
}

func ablations(p *paper) error {
	section := func(title string, results ...core.AblationResult) {
		fmt.Fprintln(p.out, title)
		for _, r := range results {
			fmt.Fprintf(p.out, "  %-16s msgs=%-6d time=%v\n", r.Setting, r.Messages, r.Elapsed)
		}
	}
	res, err := core.AblateCommitInterval(p.opts, nil, 0)
	if err != nil {
		return err
	}
	section("Ablation 1: journal commit interval (iSCSI meta-data burst)", res...)
	async, sync, err := core.AblateSyncExport(p.opts, 0)
	if err != nil {
		return err
	}
	section("Ablation 2: NFS export durability", async, sync)
	if res, err = core.AblateWritePool(p.opts, nil, 0); err != nil {
		return err
	}
	section("Ablation 3: NFS async-write pool bound (sequential write)", res...)
	withAtime, noAtime, err := core.AblateNoAtime(p.opts, 0)
	if err != nil {
		return err
	}
	section("Ablation 4: access-time maintenance (iSCSI warm reads)", withAtime, noAtime)
	return nil
}
