package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// A/A mode: the end-to-end set measured twice from the same code,
// workloads interleaved (A1 B1 ... A2 B2 ...), each run a process of its
// own exactly as the driver runs it. Any difference between the two sets
// is noise, so a difference beyond a metric's bound means the bound is
// tighter than the machine allows.

// aaRounds is how many times the set is measured.
const aaRounds = 2

func runAA(o options, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	var rounds [aaRounds]map[string]result
	for r := range rounds {
		rounds[r] = map[string]result{}
		for _, w := range workloads {
			fmt.Fprintf(stderr, "hostbench: A/A round %d: %s\n", r+1, w.name)
			res, err := runSelf(exe, w.name, o)
			if err != nil {
				fmt.Fprintf(stderr, "hostbench: %s: %v\n", w.name, err)
				return 1
			}
			rounds[r][w.name] = res
		}
	}
	beyond := 0
	fmt.Fprintf(stderr, "%-12s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads {
		a, b := rounds[0][w.name], rounds[1][w.name]
		if a.Failed+b.Failed > 0 {
			fmt.Fprintf(stderr, "%-12s %d failed checks\n", w.name, a.Failed+b.Failed)
			beyond++
		}
		for _, spec := range endToEnd {
			d := relDiff(a.Metrics[spec.name].Value, b.Metrics[spec.name].Value)
			mark := ""
			if math.Abs(d) > spec.bound {
				mark = "  BEYOND BOUND"
				beyond++
			}
			fmt.Fprintf(stderr, "%-12s %-20s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n", w.name, spec.name,
				a.Metrics[spec.name].Value, b.Metrics[spec.name].Value, 100*d, 100*spec.bound, mark)
		}
	}
	if beyond > 0 {
		fmt.Fprintf(stderr, "hostbench: A/A: %d differences beyond their bound\n", beyond)
		return 1
	}
	fmt.Fprintln(stderr, "hostbench: A/A: every difference within its bound")
	return 0
}

// runSelf runs one end-to-end run in a child process and waits for it.
func runSelf(exe, workload string, o options) (result, error) {
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64))
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("child run: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("child result: %w", err)
	}
	return res, nil
}
