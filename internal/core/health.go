package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/testbed"
)

// Health experiment: detection quality against fault ground truth. Each
// cell attaches a fresh health monitor to a fresh cluster, replays a
// seeded fault plan (internal/fault), and scores the monitor's alert
// timeline against the plan's inject/heal instants: time-to-detect,
// time-to-resolve, false positives and negatives. Every stack/transport
// variant also runs a fault-free control cell — the same plan timeline
// dry-run, so any alert that fires is a false positive by construction.
// It converts the fault axis from "measure recovery" into "measure
// whether an operator would have noticed".

// DefaultHealthCooldown extends each fault run past its last heal long
// enough for the slow burn window to drain and the resolve transition to
// land inside the cell (the fault sweep's own 2s default cuts that off).
const DefaultHealthCooldown = 4 * time.Second

// HealthConfig is the fault sweep's config: a health cell is a fault-plan
// cell with a monitor. RunHealth reads Health as the monitor spec and
// defaults Cooldown to DefaultHealthCooldown. The second name is the one
// hostbench's observed workload spells.
type HealthConfig = FaultConfig

// HealthCell is one (family, stack, transport) detection measurement —
// or a fault-free control cell (Control set, Family "control").
type HealthCell struct {
	// Family is the injected fault family ("control" for the dry-run
	// control cell).
	Family fault.Family
	// Stack and Transport are the cluster variant.
	Stack     Stack
	Transport testbed.Transport
	// Control marks the fault-free dry-run cell.
	Control bool

	// Inject/Recovered/TTR are the fault's ground truth (zero on
	// control cells).
	Inject, Recovered, TTR time.Duration
	// Detected/TTD: some objective fired at or after the injection, and
	// how long after.
	Detected bool
	TTD      time.Duration
	// Resolved/TTResolve: a resolve followed the recovery, and how long
	// after.
	Resolved  bool
	TTResolve time.Duration
	// Fires / FalsePositives / FalseNegatives grade the alert timeline
	// (see health.Score).
	Fires, FalsePositives, FalseNegatives int
	// Scrapes and GaugeEvents size the monitor's work in the cell.
	Scrapes, GaugeEvents int64
	// Collapsed marks a cell whose service never recovered (scoring is
	// then detection-only).
	Collapsed bool
}

// Label names the variant the way the tables print it.
func (c HealthCell) Label() string { return variantLabel(c.Stack, c.Transport) }

// controlFamily tags the fault-free dry-run cells.
const controlFamily = fault.Family("control")

// RunHealth sweeps detection quality over {family x stack x transport}:
// for each stack/transport variant, one fault-free control cell first,
// then one cell per fault family. Cells come out in deterministic
// order; identical seeds give byte-identical gauge streams and alert
// timelines (test-enforced). Invalid pairs (iSCSI over UDP) are
// skipped.
func RunHealth(cfg HealthConfig) ([]HealthCell, error) {
	cfg.fill()
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultHealthCooldown
	}
	if cfg.Health == nil {
		cfg.Health = &health.Config{}
	}
	cfg.pool = sweepPool(cfg.pool)
	var cells []HealthCell
	for _, v := range variants(cfg.Stacks, cfg.Transports, cfg.Conns) {
		cell, err := runHealthCell(cfg, fault.ServerCrash, v, true)
		if err != nil {
			return nil, fmt.Errorf("health control %v(%v): %w", v.stack, v.transport, err)
		}
		cells = append(cells, cell)
		for _, f := range cfg.Families {
			cell, err := runHealthCell(cfg, f, v, false)
			if err != nil {
				return nil, fmt.Errorf("health %s/%v(%v): %w", f, v.stack, v.transport, err)
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// runHealthCell is a fault-plan cell with a mandatory monitor (alert
// state is per-cell), a cooldown, a dry-run for the control, and the
// alert timeline scored against the plan's ground truth.
func runHealthCell(cfg HealthConfig, f fault.Family, v variant, control bool) (HealthCell, error) {
	family := f
	if control {
		family = controlFamily
	}
	cell := HealthCell{Family: family, Stack: v.stack, Transport: v.transport, Control: control}
	err := runPlanCell("health", cfg, v, family, f, control, &cell.Collapsed,
		func(cl *testbed.Cluster, res fault.Result) map[string]float64 {
			mon := cl.Health()
			cell.Scrapes, cell.GaugeEvents = mon.Scrapes(), mon.GaugeEvents()
			var sc health.Score
			if control {
				sc = health.ScoreControl(mon.Transitions())
			} else {
				cell.Inject, cell.Recovered, cell.TTR = res.Inject, res.Recovered, res.TTR
				cell.Collapsed = res.Collapsed
				sc = health.ScoreTimeline(mon.Transitions(), res.Inject, res.Recovered)
			}
			cell.Detected, cell.TTD = sc.Detected, sc.TTD
			cell.Resolved, cell.TTResolve = sc.Resolved, sc.TTResolve
			cell.Fires, cell.FalsePositives, cell.FalseNegatives = sc.Fires, sc.FalsePositives, sc.FalseNegatives

			results := map[string]float64{
				"fires":           float64(cell.Fires),
				"false_positives": float64(cell.FalsePositives),
				"scrapes":         float64(cell.Scrapes),
				"gauge_events":    float64(cell.GaugeEvents),
			}
			if control {
				results["control"] = 1
				return results
			}
			results["detected"] = b2f(cell.Detected)
			results["false_negatives"] = float64(cell.FalseNegatives)
			if cell.Detected {
				results["ttd_ns"] = float64(cell.TTD)
			}
			if cell.Resolved {
				results["tt_resolve_ns"] = float64(cell.TTResolve)
			}
			if !cell.Collapsed {
				results["ttr_ns"] = float64(cell.TTR)
			} else {
				results["collapsed"] = 1
			}
			return results
		})
	return cell, err
}

// b2f converts a bool result to its event-stream value.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// RenderHealth prints the detection-quality table: one panel per fault
// family (control first), one row per stack/transport variant.
func RenderHealth(w io.Writer, cells []HealthCell) {
	g := groupCells(cells, func(c HealthCell) (fault.Family, string) { return c.Family, c.Label() })
	for _, f := range g.keys {
		if f == controlFamily {
			fmt.Fprintf(w, "health: control (fault-free)\n")
			fmt.Fprintf(w, "%-16s %7s %7s %9s\n", "stack", "fires", "fp", "verdict")
			g.rows(f, func(l string, c HealthCell) {
				verdict := "quiet"
				if c.FalsePositives > 0 {
					verdict = "NOISY"
				}
				fmt.Fprintf(w, "%-16s %7d %7d %9s\n", l, c.Fires, c.FalsePositives, verdict)
			})
			fmt.Fprintln(w)
			continue
		}
		fmt.Fprintf(w, "health: %s\n", f)
		fmt.Fprintf(w, "%-16s %10s %10s %9s %10s %6s %4s %4s\n",
			"stack", "ttd", "ttr", "ttd/ttr", "resolve", "fires", "fp", "fn")
		g.rows(f, func(l string, c HealthCell) {
			ttd, ratio := "miss", "-"
			if c.Detected {
				ttd = c.TTD.Round(time.Millisecond).String()
				if c.TTR > 0 {
					ratio = fmt.Sprintf("%.2f", float64(c.TTD)/float64(c.TTR))
				}
			}
			ttr := "collapse"
			if !c.Collapsed {
				ttr = c.TTR.Round(time.Millisecond).String()
			}
			resolve := "-"
			if c.Resolved {
				resolve = c.TTResolve.Round(time.Millisecond).String()
			}
			fmt.Fprintf(w, "%-16s %10s %10s %9s %10s %6d %4d %4d\n",
				l, ttd, ttr, ratio, resolve, c.Fires, c.FalsePositives, c.FalseNegatives)
		})
		fmt.Fprintln(w)
	}
}
