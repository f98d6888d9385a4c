package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// The simulated-result pin. The simulator is deterministic, so every
// simulated number a pass produces repeats exactly; the pin holds them
// for the pinned seed and any drift is a failed check. A perf change that
// moves a simulated result therefore cannot report failed = 0.

// pinSeed is the seed the pin was taken at. Runs at another seed skip the
// pin but still require every pass of the run to agree with the first.
const pinSeed = 42

// pinPath is where -update-pin rewrites the pin, relative to the
// repository root.
const pinPath = "hostbench/testdata/sim_pin.json"

//go:embed testdata/sim_pin.json
var pinJSON []byte

// pinFile is the pin's on-disk shape: workload -> key -> value.
type pinFile struct {
	Seed      int64                         `json:"seed"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

func loadPin(data []byte) (pinFile, error) {
	var pf pinFile
	if err := json.Unmarshal(data, &pf); err != nil {
		return pinFile{}, fmt.Errorf("pin: %w", err)
	}
	return pf, nil
}

// comparePin checks a pass's simulated values against the workload's
// pinned ones: one check per pinned key, plus one that the pass produced
// nothing the pin does not know.
func comparePin(p *pass, pinned map[string]float64, got []simValue) {
	seen := make(map[string]bool, len(got))
	extra := 0
	for _, sv := range got {
		seen[sv.key] = true
		want, ok := pinned[sv.key]
		if !ok {
			extra++
			continue
		}
		p.check(sv.val == want, "pin %s: got %v, pinned %v", sv.key, sv.val, want)
	}
	for key := range pinned {
		if !seen[key] {
			p.check(false, "pin %s: pinned but not produced", key)
		}
	}
	p.check(extra == 0, "pin: %d simulated values are not pinned (run -update-pin)", extra)
}

// compareFirst checks that a pass reproduced the run's first pass exactly.
func compareFirst(p *pass, first, got []simValue) {
	if len(first) != len(got) {
		p.check(false, "pass produced %d simulated values, the first pass %d", len(got), len(first))
		return
	}
	for i, sv := range got {
		p.check(sv == first[i], "pass-to-pass %s: got %v, first pass %s = %v", sv.key, sv.val, first[i].key, first[i].val)
	}
}

// writePin rewrites the pin file from one reference pass per workload.
func writePin(path string, byWorkload map[string][]simValue) error {
	pf := pinFile{Seed: pinSeed, Workloads: map[string]map[string]float64{}}
	for name, values := range byWorkload {
		m := make(map[string]float64, len(values))
		for _, sv := range values {
			if _, dup := m[sv.key]; dup {
				return fmt.Errorf("pin: workload %s produces key %s twice", name, sv.key)
			}
			m[sv.key] = sv.val
		}
		pf.Workloads[name] = m
	}
	data, err := json.MarshalIndent(pf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
