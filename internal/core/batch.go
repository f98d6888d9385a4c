package core

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/testbed"
	"repro/internal/vfs"
)

// Figure 3 quantifies iSCSI's meta-data update aggregation: a batch of N
// consecutive invocations of one operation, starting cold, and the
// amortized messages per operation. The paper sweeps N from 1 to 1024 for
// eight operations (Section 4.2).

// batchOp is one Figure 3 operation: run invocation i of a batch.
type batchOp struct {
	Name  string
	Setup func(tb *testbed.Testbed) error
	Run   func(tb *testbed.Testbed, i int) error
}

// batchOps lists the paper's eight batched operations.
var batchOps = []batchOp{
	{
		Name: "create",
		Run:  func(tb *testbed.Testbed, i int) error { return touch(tb, fmt.Sprintf("/c%d", i)) },
	},
	{
		Name:  "link",
		Setup: func(tb *testbed.Testbed) error { return touch(tb, "/src") },
		Run: func(tb *testbed.Testbed, i int) error {
			return tb.Link("/src", fmt.Sprintf("/ln%d", i))
		},
	},
	{
		Name: "rename",
		Setup: func(tb *testbed.Testbed) error {
			return touch(tb, "/r0")
		},
		Run: func(tb *testbed.Testbed, i int) error {
			return tb.Rename(fmt.Sprintf("/r%d", i), fmt.Sprintf("/r%d", i+1))
		},
	},
	{
		Name:  "chmod",
		Setup: func(tb *testbed.Testbed) error { return touch(tb, "/ch") },
		Run: func(tb *testbed.Testbed, i int) error {
			return tb.Chmod("/ch", vfs.Mode(0o600+i%8))
		},
	},
	{
		Name:  "stat",
		Setup: func(tb *testbed.Testbed) error { return touch(tb, "/st") },
		Run: func(tb *testbed.Testbed, i int) error {
			_, err := tb.Stat("/st")
			return err
		},
	},
	{
		Name:  "access",
		Setup: func(tb *testbed.Testbed) error { return touch(tb, "/ac") },
		Run:   func(tb *testbed.Testbed, i int) error { return tb.Access("/ac") },
	},
	{
		Name: "mkdir",
		Run:  func(tb *testbed.Testbed, i int) error { return tb.Mkdir(fmt.Sprintf("/m%d", i)) },
	},
	{
		Name:  "write",
		Setup: func(tb *testbed.Testbed) error { return tb.WriteFile("/w", make([]byte, 4096)) },
		Run: func(tb *testbed.Testbed, i int) error {
			f, err := tb.Open("/w")
			if err != nil {
				return err
			}
			if _, err := tb.WriteFileAt(f, 0, []byte{byte(i)}); err != nil {
				return err
			}
			return tb.Close(f)
		},
	},
}

// BatchPoint is one Figure 3 sample: amortized messages per op at a batch
// size.
type BatchPoint struct {
	Batch     int
	PerOpMsgs float64
	TotalMsgs int64
}

// BatchSeries is the Figure 3 curve for one operation.
type BatchSeries struct {
	Op     string
	Points []BatchPoint
}

// RunFigure3 reproduces Figure 3 on the iSCSI stack (aggregation is a
// client-filesystem property; the stack argument defaults to iSCSI).
func RunFigure3(opts Options, batches []int) ([]BatchSeries, error) {
	opts.pool = sweepPool(opts.pool)
	if len(batches) == 0 {
		batches = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	}
	var out []BatchSeries
	for _, op := range batchOps {
		s := BatchSeries{Op: op.Name}
		for _, n := range batches {
			tags := metrics.Tags{"op": op.Name, "batch": itoa(n)}
			err := opts.onBed("figure3", tags, testbed.Config{Kind: ISCSI}, func(tb *testbed.Testbed) error {
				if op.Setup != nil {
					if err := op.Setup(tb); err != nil {
						return fmt.Errorf("setup: %w", err)
					}
				}
				if err := tb.ColdCache(); err != nil {
					return err
				}
				d, err := window(tb, false, func() error {
					for i := 0; i < n; i++ {
						if err := op.Run(tb, i); err != nil {
							return fmt.Errorf("[%d]: %w", i, err)
						}
					}
					return nil
				}, func(d testbed.Delta, results map[string]float64) {
					results["msgs_per_op"] = float64(d.Messages) / float64(n)
				})
				if err != nil {
					return err
				}
				s.Points = append(s.Points, BatchPoint{
					Batch:     n,
					TotalMsgs: d.Messages,
					PerOpMsgs: float64(d.Messages) / float64(n),
				})
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("figure3 %s: %w", op.Name, err)
			}
		}
		out = append(out, s)
	}
	return out, nil
}
