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

// The paper's own experiments: Tables 2-10, Figures 3-7, Section 7.

func microbench(fs *flag.FlagSet) func(*env) error {
	var table, figure int
	RangeVar(fs, &table, "table", 0, 2, 3, "table to regenerate (2 or 3)")
	RangeVar(fs, &figure, "figure", 0, 3, 5, "figure to regenerate (3, 4 or 5)")
	all := fs.Bool("all", false, "run every micro-benchmark")
	check := fs.Bool("check", false, "run paper-shape conformance checks on the tables")
	return func(e *env) error {
		var tables, figures []int
		switch {
		case *all:
			tables, figures = []int{2, 3}, []int{3, 4, 5}
		case table != 0:
			tables = []int{table}
		case figure != 0:
			figures = []int{figure}
		default:
			return usageError{errors.New("pick one of -table, -figure, -all")}
		}
		opts := core.Options{Metrics: e.metrics}
		failed := 0
		for _, n := range tables {
			run, shapes := core.RunTable2, core.CheckTable2Shapes
			title := "Table 2: network message counts, cold cache"
			if n == 3 {
				run, shapes = core.RunTable3, core.CheckTable3Shapes
				title = "Table 3: network message counts, warm cache"
			}
			rows, err := run(opts)
			if err != nil {
				return err
			}
			core.RenderSyscallTable(e.out, title, rows)
			if *check {
				failed += core.RenderChecks(e.out, "Conformance with the paper's claims:", shapes(rows))
			}
		}
		for _, n := range figures {
			var err error
			switch n {
			case 3:
				err = show(e.out, core.RenderFigure3)(core.RunFigure3(opts, nil))
			case 4:
				err = show(e.out, core.RenderFigure4)(core.RunFigure4(opts, nil))
			case 5:
				err = show(e.out, core.RenderFigure5)(core.RunFigure5(opts, nil))
			}
			if err != nil {
				return err
			}
		}
		if failed > 0 {
			return fmt.Errorf("%d conformance checks failed", failed)
		}
		return nil
	}
}

func macrobench(fs *flag.FlagSet) func(*env) error {
	bench := fs.String("bench", "", "benchmark: tpcc, tpch or kernel")
	cpu := fs.Bool("cpu", false, "regenerate CPU utilization tables 9 and 10")
	all := fs.Bool("all", false, "run everything")
	scale := scaleFlag(fs, "workload scale factor")
	return func(e *env) error {
		parts := []string{*bench}
		switch {
		case *all:
			parts = []string{"tpcc", "tpch", "kernel", "cpu"}
		case *cpu:
			parts = []string{"cpu"}
		case *bench != "tpcc" && *bench != "tpch" && *bench != "kernel":
			return usageError{errors.New("pick one of -bench tpcc|tpch|kernel, -cpu, -all")}
		}
		opts, s := core.Options{Metrics: e.metrics}, core.MacroScale(*scale)
		tpc := func(title, unit string) func(io.Writer, core.TPCRow) {
			return func(w io.Writer, row core.TPCRow) {
				fmt.Fprintln(w, title)
				core.RenderTPC(w, row, unit)
			}
		}
		for _, part := range parts {
			var err error
			switch part {
			case "tpcc":
				err = show(e.out, tpc("Table 6:", "tpmC"))(core.RunTable6(opts, s))
			case "tpch":
				err = show(e.out, tpc("Table 7:", "QphH"))(core.RunTable7(opts, s))
			case "kernel":
				err = show(e.out, core.RenderTable8)(core.RunTable8(opts, s))
			case "cpu":
				err = show(e.out, core.RenderCPUTables)(core.RunTable9And10(opts, s))
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
}

func postmark(fs *flag.FlagSet) func(*env) error {
	scale := scaleFlag(fs, "scale factor for pool/transactions (1.0 = paper)")
	return func(e *env) error {
		return show(e.out, core.RenderTable5)(
			core.RunTable5(core.Options{Metrics: e.metrics}, core.MacroScale(*scale)))
	}
}

func seqrand(fs *flag.FlagSet) func(*env) error {
	var fileSize int64
	sizeFlag(fs, &fileSize, 1<<20, 128, 16384, "file size in MB (paper: 128)")
	return func(e *env) error {
		return show(e.out, core.RenderTable4)(core.RunTable4(core.Options{Metrics: e.metrics}, fileSize))
	}
}

func latency(fs *flag.FlagSet) func(*env) error {
	var fileSize int64
	var step int
	sizeFlag(fs, &fileSize, 1<<20, 128, 16384, "file size in MB (paper: 128)")
	RangeVar(fs, &step, "step", 20, 1, 80, "RTT step in ms (paper plots 10ms steps; 1..80)")
	loss := lossFlag(fs)
	return func(e *env) error {
		var rtts []time.Duration
		for ms := 10; ms <= 90; ms += step {
			rtts = append(rtts, time.Duration(ms)*time.Millisecond)
		}
		points, err := core.RunFigure6(core.Options{LossRate: *loss / 100, Metrics: e.metrics}, fileSize, rtts)
		if err != nil {
			return err
		}
		if *loss > 0 {
			fmt.Fprintf(e.out, "Figure 6 with %.1f%% frame loss injected on the WAN path\n\n", *loss)
		}
		core.RenderFigure6(e.out, points)
		return nil
	}
}

func ablate(*flag.FlagSet) func(*env) error {
	return func(e *env) error {
		opts := core.Options{Metrics: e.metrics}
		section := func(title string, results ...core.AblationResult) {
			fmt.Fprintln(e.out, title)
			for _, r := range results {
				fmt.Fprintf(e.out, "  %-16s msgs=%-6d time=%v\n", r.Setting, r.Messages, r.Elapsed)
			}
		}
		res, err := core.AblateCommitInterval(opts, nil, 0)
		if err != nil {
			return err
		}
		section("Ablation 1: journal commit interval (iSCSI meta-data burst)", res...)
		async, sync, err := core.AblateSyncExport(opts, 0)
		if err != nil {
			return err
		}
		section("Ablation 2: NFS export durability", async, sync)
		if res, err = core.AblateWritePool(opts, nil, 0); err != nil {
			return err
		}
		section("Ablation 3: NFS async-write pool bound (sequential write)", res...)
		withAtime, noAtime, err := core.AblateNoAtime(opts, 0)
		if err != nil {
			return err
		}
		section("Ablation 4: access-time maintenance (iSCSI warm reads)", withAtime, noAtime)
		return nil
	}
}

func tracesim(fs *flag.FlagSet) func(*env) error {
	figure7 := fs.Bool("figure7", false, "directory sharing analysis (Figure 7)")
	enhance := fs.Bool("enhance", false, "meta-data cache and delegation simulation")
	all := fs.Bool("all", false, "run both")
	return func(e *env) error {
		if !*figure7 && !*enhance && !*all {
			return usageError{errors.New("pick one of -figure7, -enhance, -all")}
		}
		rec := e.metrics.With(metrics.Tags{"experiment": "tracesim"})
		profiles := []trace.Profile{trace.EECS(), trace.Campus()}
		traces := make([][]trace.Record, len(profiles))
		for i, p := range profiles {
			traces[i] = trace.Synthesize(p)
		}
		if *figure7 || *all {
			for i, p := range profiles {
				pts := trace.AnalyzeSharing(traces[i], nil)
				fmt.Fprint(e.out, trace.FormatSharing(p.Name, pts))
				// Whole-trace analyses carry the sharing interval in virtual
				// time and the profile in tags.
				for _, pt := range pts {
					rec.Point(pt.Interval, metrics.SubsysRun,
						metrics.Tags{"analysis": "sharing", "profile": p.Name},
						map[string]float64{
							"read_one":         pt.ReadOne,
							"write_one":        pt.WriteOne,
							"read_multiple":    pt.ReadMultiple,
							"written_multiple": pt.WrittenMultiple,
						})
				}
			}
		}
		if *enhance || *all {
			fmt.Fprintln(e.out, "Section 7: strongly-consistent read-only meta-data cache")
			fmt.Fprintf(e.out, "%-8s %-10s %12s %12s\n", "trace", "cache", "reduction", "callbacks/msg")
			for i, p := range profiles {
				for _, size := range []int{64, 256, 1024, 4096} {
					r := trace.SimulateMetadataCache(traces[i], size)
					fmt.Fprintf(e.out, "%-8s %-10d %11.1f%% %12.4f\n", p.Name, size, r.Reduction*100, r.CallbackRatio)
					rec.Point(0, metrics.SubsysRun,
						metrics.Tags{"analysis": "metadata-cache", "profile": p.Name,
							"cache": strconv.Itoa(size)},
						map[string]float64{"reduction": r.Reduction, "callback_ratio": r.CallbackRatio})
				}
			}
			fmt.Fprintln(e.out, "Section 7: directory delegation")
			fmt.Fprintf(e.out, "%-8s %12s %12s\n", "trace", "reduction", "recalls/msg")
			for i, p := range profiles {
				r := trace.SimulateDelegation(traces[i])
				fmt.Fprintf(e.out, "%-8s %11.1f%% %12.4f\n", p.Name, r.MessageReduction*100, r.RecallRatio)
				rec.Point(0, metrics.SubsysRun,
					metrics.Tags{"analysis": "delegation", "profile": p.Name},
					map[string]float64{"reduction": r.MessageReduction, "recall_ratio": r.RecallRatio})
			}
		}
		return nil
	}
}
