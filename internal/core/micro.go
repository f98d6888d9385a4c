package core

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/testbed"
	"repro/internal/vfs"
)

// microOp defines one of the paper's Table 1 system calls as a
// cold/warm-measurable experiment. Setup creates whatever objects the call
// needs (before the cache is emptied); Run makes one invocation: phaseCold
// is the cold-cache one, phaseWarmPrime and phaseWarm form the warm-cache
// pair — a priming call followed, after a gap, by a "similar though not
// identical" call, exactly the paper's protocol (Section 4.1 and its
// footnote).
type microOp struct {
	Name  string
	Setup func(tb *testbed.Testbed, dir string) error
	Run   func(tb *testbed.Testbed, dir string, which microPhase) error
}

// microPhase says which of a microOp's three invocations Run makes. Each call
// below indexes its object name or argument by it.
type microPhase int

// The invocations of a microOp.
const (
	phaseCold microPhase = iota
	phaseWarmPrime
	phaseWarm
)

// touch creates an empty file.
func touch(tb *testbed.Testbed, path string) error {
	f, err := tb.Create(path)
	if err != nil {
		return err
	}
	return tb.Close(f)
}

// each calls f on every name under dir until one fails.
func each(dir string, names [3]string, f func(string) error) error {
	for _, n := range names {
		if err := f(join(dir, n)); err != nil {
			return err
		}
	}
	return nil
}

// microOps lists the paper's sixteen file and directory calls (Table 1;
// rename appears in Table 2 as a seventeenth row).
var microOps = []microOp{
	{
		Name: "mkdir",
		Run: func(tb *testbed.Testbed, d string, w microPhase) error {
			return tb.Mkdir(join(d, [3]string{"n0", "w1", "w2"}[w]))
		},
	},
	{
		Name: "chdir",
		Setup: func(tb *testbed.Testbed, d string) error {
			if err := tb.Mkdir(join(d, "t1")); err != nil {
				return err
			}
			return tb.Mkdir(join(d, "t2"))
		},
		Run: func(tb *testbed.Testbed, d string, w microPhase) error {
			return tb.Chdir(join(d, [3]string{"t1", "t1", "t2"}[w]))
		},
	},
	{
		Name: "readdir",
		Setup: func(tb *testbed.Testbed, d string) error {
			if err := tb.Mkdir(join(d, "t1")); err != nil {
				return err
			}
			return each(d, [3]string{"t1/e0", "t1/e1", "t1/e2"}, func(p string) error { return touch(tb, p) })
		},
		Run: func(tb *testbed.Testbed, d string, _ microPhase) error {
			_, err := tb.ReadDir(join(d, "t1"))
			return err
		},
	},
	{
		Name: "symlink",
		Run: func(tb *testbed.Testbed, d string, w microPhase) error {
			return tb.Symlink("target", join(d, [3]string{"s0", "s1", "s2"}[w]))
		},
	},
	{
		Name:  "readlink",
		Setup: func(tb *testbed.Testbed, d string) error { return tb.Symlink("target", join(d, "l1")) },
		Run: func(tb *testbed.Testbed, d string, _ microPhase) error {
			_, err := tb.Readlink(join(d, "l1"))
			return err
		},
	},
	{
		Name: "unlink",
		Setup: func(tb *testbed.Testbed, d string) error {
			return each(d, [3]string{"u0", "u1", "u2"}, func(p string) error { return touch(tb, p) })
		},
		Run: func(tb *testbed.Testbed, d string, w microPhase) error {
			return tb.Unlink(join(d, [3]string{"u0", "u1", "u2"}[w]))
		},
	},
	{
		Name: "rmdir",
		Setup: func(tb *testbed.Testbed, d string) error {
			return each(d, [3]string{"r0", "r1", "r2"}, tb.Mkdir)
		},
		Run: func(tb *testbed.Testbed, d string, w microPhase) error {
			return tb.Rmdir(join(d, [3]string{"r0", "r1", "r2"}[w]))
		},
	},
	{
		Name: "creat",
		Run: func(tb *testbed.Testbed, d string, w microPhase) error {
			return touch(tb, join(d, [3]string{"c0", "c1", "c2"}[w]))
		},
	},
	{
		Name:  "open",
		Setup: func(tb *testbed.Testbed, d string) error { return touch(tb, join(d, "o1")) },
		Run: func(tb *testbed.Testbed, d string, _ microPhase) error {
			f, err := tb.Open(join(d, "o1"))
			if err != nil {
				return err
			}
			return tb.Close(f)
		},
	},
	{
		Name:  "link",
		Setup: func(tb *testbed.Testbed, d string) error { return touch(tb, join(d, "src")) },
		Run: func(tb *testbed.Testbed, d string, w microPhase) error {
			return tb.Link(join(d, "src"), join(d, [3]string{"l0", "la", "lb"}[w]))
		},
	},
	{
		Name: "rename",
		Setup: func(tb *testbed.Testbed, d string) error {
			return each(d, [3]string{"m0", "m1", "m2"}, func(p string) error { return touch(tb, p) })
		},
		Run: func(tb *testbed.Testbed, d string, w microPhase) error {
			from := join(d, [3]string{"m0", "m1", "m2"}[w])
			return tb.Rename(from, from+"x")
		},
	},
	{
		Name: "trunc",
		Setup: func(tb *testbed.Testbed, d string) error {
			return tb.WriteFile(join(d, "tr"), make([]byte, 8192))
		},
		Run: func(tb *testbed.Testbed, d string, w microPhase) error {
			return tb.Truncate(join(d, "tr"), [3]int64{4096, 2048, 1024}[w])
		},
	},
	{
		Name:  "chmod",
		Setup: func(tb *testbed.Testbed, d string) error { return touch(tb, join(d, "ch")) },
		Run: func(tb *testbed.Testbed, d string, w microPhase) error {
			return tb.Chmod(join(d, "ch"), [3]vfs.Mode{0o640, 0o600, 0o644}[w])
		},
	},
	{
		Name:  "chown",
		Setup: func(tb *testbed.Testbed, d string) error { return touch(tb, join(d, "cw")) },
		Run: func(tb *testbed.Testbed, d string, w microPhase) error {
			id := [3]uint32{10, 11, 12}[w]
			return tb.Chown(join(d, "cw"), id, id)
		},
	},
	{
		Name:  "access",
		Setup: func(tb *testbed.Testbed, d string) error { return touch(tb, join(d, "ac")) },
		Run:   func(tb *testbed.Testbed, d string, _ microPhase) error { return tb.Access(join(d, "ac")) },
	},
	{
		Name:  "stat",
		Setup: func(tb *testbed.Testbed, d string) error { return touch(tb, join(d, "stt")) },
		Run: func(tb *testbed.Testbed, d string, _ microPhase) error {
			_, err := tb.Stat(join(d, "stt"))
			return err
		},
	},
	{
		Name:  "utime",
		Setup: func(tb *testbed.Testbed, d string) error { return touch(tb, join(d, "ut")) },
		Run:   func(tb *testbed.Testbed, d string, _ microPhase) error { return tb.Utimes(join(d, "ut")) },
	},
}

// findMicroOp looks an operation up by name.
func findMicroOp(name string) (microOp, error) {
	for _, op := range microOps {
		if op.Name == name {
			return op, nil
		}
	}
	return microOp{}, fmt.Errorf("core: unknown micro op %q", name)
}

// microCount measures one (op, depth, stack, warm) cell: the number of
// protocol transactions from invocation to quiescence.
func microCount(opts Options, op microOp, depth int, stack Stack, warm bool) (msgs int64, err error) {
	mode, which := "cold", phaseCold
	if warm {
		mode, which = "warm", phaseWarm
	}
	tags := metrics.Tags{"op": op.Name, "depth": itoa(depth), "mode": mode}
	err = opts.onBed("micro", tags, testbed.Config{Kind: stack}, func(tb *testbed.Testbed) error {
		if err := buildChain(tb, depth); err != nil {
			return err
		}
		dir := chainPath(depth)
		if op.Setup != nil {
			if err := op.Setup(tb, dir); err != nil {
				return fmt.Errorf("%s setup: %w", op.Name, err)
			}
		}
		if err := tb.ColdCache(); err != nil {
			return err
		}
		if warm {
			if err := op.Run(tb, dir, phaseWarmPrime); err != nil {
				return fmt.Errorf("%s warm prime: %w", op.Name, err)
			}
			if err := settle(tb); err != nil {
				return err
			}
		}
		d, err := window(tb, false, func() error { return op.Run(tb, dir, which) }, nil)
		msgs = d.Messages
		if err != nil {
			return fmt.Errorf("%s run: %w", op.Name, err)
		}
		return nil
	})
	return msgs, err
}

// SyscallRow is one row of Table 2 or Table 3: message counts for the four
// stacks at directory depths 0 and 3.
type SyscallRow struct {
	Op     string
	Depth0 map[Stack]int64
	Depth3 map[Stack]int64
}

// runSyscallTable produces Table 2 (warm=false) or Table 3 (warm=true).
func runSyscallTable(opts Options, warm bool) ([]SyscallRow, error) {
	opts.pool = sweepPool(opts.pool)
	var rows []SyscallRow
	for _, op := range microOps {
		row := SyscallRow{Op: op.Name, Depth0: map[Stack]int64{}, Depth3: map[Stack]int64{}}
		for _, stack := range testbed.AllKinds {
			for _, depth := range []int{0, 3} {
				n, err := microCount(opts, op, depth, stack, warm)
				if err != nil {
					return nil, fmt.Errorf("%s depth %d on %v: %w", op.Name, depth, stack, err)
				}
				if depth == 0 {
					row.Depth0[stack] = n
				} else {
					row.Depth3[stack] = n
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunTable2 reproduces Table 2: cold-cache network message overheads.
func RunTable2(opts Options) ([]SyscallRow, error) { return runSyscallTable(opts, false) }

// RunTable3 reproduces Table 3: warm-cache network message overheads.
func RunTable3(opts Options) ([]SyscallRow, error) { return runSyscallTable(opts, true) }

// DepthPoint is one Figure 4 sample.
type DepthPoint struct {
	Depth    int
	Messages map[Stack]int64
}

// DepthSeries is one Figure 4 panel: an operation in cold or warm mode.
type DepthSeries struct {
	Op     string
	Warm   bool
	Points []DepthPoint
}

// RunFigure4 reproduces Figure 4: message counts for mkdir, chdir and
// readdir as directory depth varies, cold and warm.
func RunFigure4(opts Options, depths []int) ([]DepthSeries, error) {
	opts.pool = sweepPool(opts.pool)
	if len(depths) == 0 {
		depths = []int{0, 2, 4, 6, 8, 10, 12, 14, 16}
	}
	var out []DepthSeries
	for _, name := range []string{"mkdir", "chdir", "readdir"} {
		op, err := findMicroOp(name)
		if err != nil {
			return nil, err
		}
		for _, warm := range []bool{false, true} {
			s := DepthSeries{Op: name, Warm: warm}
			for _, d := range depths {
				pt := DepthPoint{Depth: d, Messages: map[Stack]int64{}}
				for _, stack := range testbed.AllKinds {
					n, err := microCount(opts, op, d, stack, warm)
					if err != nil {
						return nil, err
					}
					pt.Messages[stack] = n
				}
				s.Points = append(s.Points, pt)
			}
			out = append(out, s)
		}
	}
	return out, nil
}
