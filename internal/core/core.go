// Package core is the comparison framework that reproduces every table and
// figure in the paper's evaluation (Sections 4 and 5): it runs the micro- and
// macro-benchmarks on each protocol stack, counts protocol transactions over
// the paper's measurement windows, and renders the results in the papers'
// table/figure layouts. As the paper measures everything with one protocol
// on one testbed, every experiment here builds, frames and closes its cells
// in one place (cell.go): onBed for a one-client testbed, runCell for a
// cluster.
//
// Experiment index:
//
//	Table 2/3   — RunTable2 / RunTable3 (cold/warm syscall message counts)
//	Figure 3    — RunFigure3 (iSCSI meta-data update aggregation)
//	Figure 4    — RunFigure4 (directory-depth sensitivity)
//	Figure 5    — RunFigure5 (read/write size sensitivity)
//	Table 4     — RunTable4 (128 MB sequential/random I/O)
//	Figure 6    — RunFigure6 (WAN latency sweep)
//	Table 5     — RunTable5 (PostMark)
//	Table 6/7   — RunTable6 / RunTable7 (TPC-C / TPC-H)
//	Table 8     — RunTable8 (tar/ls/compile/rm)
//	Table 9/10  — RunTable9And10 (server/client CPU utilization)
package core

import (
	"fmt"
	"strings"

	"repro/internal/blockdev"
	"repro/internal/metrics"
	"repro/internal/testbed"
)

// Stack identifies one protocol stack column, in the paper's order.
type Stack = testbed.Kind

// Stacks in table order.
const (
	NFSv2 = testbed.NFSv2
	NFSv3 = testbed.NFSv3
	NFSv4 = testbed.NFSv4
	ISCSI = testbed.ISCSI
)

// Options configures experiment scale. Zero values select paper-faithful
// parameters; tests and benchmarks shrink them for speed.
type Options struct {
	// DeviceBlocks sizes the volume (default: testbed's, 524288 = 2 GB).
	DeviceBlocks int64
	// Seed for workload randomness.
	Seed int64
	// LossRate injects frame loss on the testbed link, so the WAN sweep
	// (Figure 6, repro paper -figure 6 -loss) can model lossy long-haul paths.
	LossRate float64
	// Metrics, when non-nil, receives telemetry from every experiment
	// run with these Options: each cell's testbed streams tagged counter
	// samples and result points (see docs/METRICS.md).
	Metrics *metrics.Recorder

	pool *blockdev.Pool // the cells' shared block pool; see sweepPool
}

// sweepPool returns the block pool (testbed.Config.Pool) the cells one
// exported Run* or Ablate* call builds one after another share: a fresh one,
// which dies with the call, unless the config already carries one (an
// enclosing call's, or the poisoning pool a test planted). So there is no
// package-level pool, counts repeat from call to call, and concurrent calls
// never share one.
func sweepPool(p *blockdev.Pool) *blockdev.Pool {
	if p == nil {
		p = &blockdev.Pool{}
	}
	return p
}

// chainPath returns the directory-chain path for a given depth: depth 0 is
// "/", depth 3 is "/d1/d2/d3" (the paper's /d1/d2/.../dn convention).
func chainPath(depth int) string {
	p := ""
	for i := 1; i <= depth; i++ {
		p += fmt.Sprintf("/d%d", i)
	}
	if p == "" {
		p = "/"
	}
	return p
}

// buildChain creates the directory chain on a testbed.
func buildChain(tb *testbed.Testbed, depth int) error {
	p := ""
	for i := 1; i <= depth; i++ {
		p += fmt.Sprintf("/d%d", i)
		if err := tb.Mkdir(p); err != nil {
			return err
		}
	}
	return nil
}

// join concatenates a chain path and a name.
func join(dir, name string) string { return strings.TrimSuffix(dir, "/") + "/" + name }
