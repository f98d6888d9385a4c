package main

// The flag vocabulary: comma-separated axis lists (client counts,
// connection counts, loss rates, RTTs) with uniform range checks, the
// stack/transport name vocabularies, flags that apply those checks as they
// are parsed (flagvalues.go), and the three flag groups an experiment may
// be offered: profiles (profile.go), span traces (traceflags.go), the
// health monitor (health.go). Every flag registers on the flag.FlagSet it
// is given, and a value outside its range fails with one message shape:
// `bad -<flag> value "x" (...)`.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/testbed"
)

// Shared axis bounds: fleet-scale totals for hybrid sweeps, one simulated
// machine per client for mechanistic ones, MC/S connection counts as
// Kumar et al. swept them, and loss rates beyond 50% model a broken
// path, not a lossy one.
const (
	// MaxClients caps the total fleet size of any sweep, including the
	// fluid background population in hybrid (background) mode.
	MaxClients = 100000
	// MaxMechClients caps fully mechanistic client counts: beyond a
	// rack's worth, every extra client costs simulated state and wall
	// clock — exactly what background (hybrid fluid) mode avoids.
	MaxMechClients = 128
	// MaxConns caps MC/S connection counts.
	MaxConns = 16
	// MaxLossPercent caps loss-rate axes.
	MaxLossPercent = 50
)

// Each returns the parser of -flag's comma-separated value: item parses
// one element, blank elements are skipped, "all" stands for every value
// when all is non-nil, and an empty list is refused.
func Each[T any](flag string, all []T, item func(string) (T, error)) func(string) ([]T, error) {
	return func(list string) ([]T, error) {
		if all != nil && strings.ToLower(strings.TrimSpace(list)) == "all" {
			return append([]T(nil), all...), nil
		}
		var out []T
		for _, s := range strings.Split(list, ",") {
			if s = strings.TrimSpace(s); s == "" {
				continue
			}
			v, err := item(s)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("-%s needs at least one value", flag)
		}
		return out, nil
	}
}

// number returns the parser of one numeric value of -flag in [min, max].
func number[T int | int64 | float64](flag string, min, max T) func(string) (T, error) {
	return func(s string) (T, error) {
		var v T
		var err error
		switch p := any(&v).(type) {
		case *int:
			*p, err = strconv.Atoi(s)
		case *int64:
			*p, err = strconv.ParseInt(s, 10, 64)
		case *float64:
			*p, err = strconv.ParseFloat(s, 64)
		}
		if err != nil {
			return v, fmt.Errorf("bad -%s value %q (not a number)", flag, s)
		}
		if v < min || v > max {
			return v, fmt.Errorf("bad -%s value %v (range %v..%v)", flag, v, min, max)
		}
		return v, nil
	}
}

// Ints parses a comma-separated integer list, requiring every value in
// [min, max] and at least one value.
func Ints(list, flag string, min, max int) ([]int, error) {
	return Each(flag, nil, number(flag, min, max))(list)
}

// ClientCounts parses a -clients list. In background (hybrid) mode
// counts range up to MaxClients; mechanistic-only sweeps cap at
// MaxMechClients, and oversized counts get an error pointing at
// -background instead of a bare range failure.
func ClientCounts(list string, background bool) ([]int, error) {
	counts, err := Ints(list, "clients", 1, MaxClients)
	if err != nil {
		return nil, err
	}
	if !background {
		for _, n := range counts {
			if n > MaxMechClients {
				return nil, fmt.Errorf(
					"bad -clients value %d: mechanistic sweeps cap at %d clients; pass -background to model larger fleets as calibrated fluid load",
					n, MaxMechClients)
			}
		}
	}
	return counts, nil
}

// LossPercents parses a comma-separated list of loss rates given in
// percent (the cmds' convention), bounds them to [0, MaxLossPercent],
// and returns fractions.
func LossPercents(list, flag string) ([]float64, error) {
	ps, err := Each(flag, nil, number[float64](flag, 0, MaxLossPercent))(list)
	for i := range ps {
		ps[i] /= 100
	}
	return ps, err
}

// Stacks parses a comma-separated stack list ("all" for every stack;
// names are the metrics tag vocabulary nfsv2..nfsv4, iscsi).
func Stacks(list string) ([]testbed.Kind, error) {
	return Each("stacks", testbed.AllKinds, func(s string) (testbed.Kind, error) {
		switch strings.ToLower(s) {
		case "nfsv2":
			return testbed.NFSv2, nil
		case "nfsv3":
			return testbed.NFSv3, nil
		case "nfsv4":
			return testbed.NFSv4, nil
		case "iscsi":
			return testbed.ISCSI, nil
		}
		return 0, fmt.Errorf("bad -stacks value %q (all, nfsv2, nfsv3, nfsv4, iscsi)", s)
	})(list)
}

// Transports parses a comma-separated wire-model list (fluid, udp, tcp).
func Transports(list string) ([]testbed.Transport, error) {
	return Each("transports", nil, func(s string) (testbed.Transport, error) {
		switch strings.ToLower(s) {
		case "fluid":
			return testbed.TransportFluid, nil
		case "udp":
			return testbed.TransportUDP, nil
		case "tcp":
			return testbed.TransportTCP, nil
		}
		return 0, fmt.Errorf("bad -transports value %q (fluid, udp, tcp)", s)
	})(list)
}

// workloads validates a comma-separated workload list ("all" for every
// one) against the harness's known set.
func workloads(list string, known []string) ([]string, error) {
	return Each("workloads", known, func(s string) (string, error) {
		for _, k := range known {
			if s == k {
				return s, nil
			}
		}
		return "", fmt.Errorf("bad -workloads value %q (have %s)", s, strings.Join(known, ", "))
	})(list)
}
