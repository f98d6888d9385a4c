package core

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/testbed"
)

// MicroOp defines one of the paper's Table 1 system calls as a
// cold/warm-measurable experiment. Setup creates whatever objects the call
// needs (before the cache is emptied); Cold is the cold-cache invocation;
// WarmPrime and Warm form the warm-cache pair — a priming call followed,
// after a gap, by a "similar though not identical" call, exactly the
// paper's protocol (Section 4.1 and its footnote).
type MicroOp struct {
	Name      string
	Setup     func(tb *testbed.Testbed, dir string) error
	Cold      func(tb *testbed.Testbed, dir string) error
	WarmPrime func(tb *testbed.Testbed, dir string) error
	Warm      func(tb *testbed.Testbed, dir string) error
}

// touch creates an empty file.
func touch(tb *testbed.Testbed, path string) error {
	f, err := tb.Create(path)
	if err != nil {
		return err
	}
	return tb.Close(f)
}

// MicroOps lists the paper's sixteen file and directory calls (Table 1;
// rename appears in Table 2 as a seventeenth row).
var MicroOps = []MicroOp{
	{
		Name:      "mkdir",
		Cold:      func(tb *testbed.Testbed, d string) error { return tb.Mkdir(join(d, "n0")) },
		WarmPrime: func(tb *testbed.Testbed, d string) error { return tb.Mkdir(join(d, "w1")) },
		Warm:      func(tb *testbed.Testbed, d string) error { return tb.Mkdir(join(d, "w2")) },
	},
	{
		Name: "chdir",
		Setup: func(tb *testbed.Testbed, d string) error {
			if err := tb.Mkdir(join(d, "t1")); err != nil {
				return err
			}
			return tb.Mkdir(join(d, "t2"))
		},
		Cold:      func(tb *testbed.Testbed, d string) error { return tb.Chdir(join(d, "t1")) },
		WarmPrime: func(tb *testbed.Testbed, d string) error { return tb.Chdir(join(d, "t1")) },
		Warm:      func(tb *testbed.Testbed, d string) error { return tb.Chdir(join(d, "t2")) },
	},
	{
		Name: "readdir",
		Setup: func(tb *testbed.Testbed, d string) error {
			if err := tb.Mkdir(join(d, "t1")); err != nil {
				return err
			}
			for i := 0; i < 3; i++ {
				if err := touch(tb, join(d, fmt.Sprintf("t1/e%d", i))); err != nil {
					return err
				}
			}
			return nil
		},
		Cold: func(tb *testbed.Testbed, d string) error {
			_, err := tb.ReadDir(join(d, "t1"))
			return err
		},
		WarmPrime: func(tb *testbed.Testbed, d string) error {
			_, err := tb.ReadDir(join(d, "t1"))
			return err
		},
		Warm: func(tb *testbed.Testbed, d string) error {
			_, err := tb.ReadDir(join(d, "t1"))
			return err
		},
	},
	{
		Name:      "symlink",
		Cold:      func(tb *testbed.Testbed, d string) error { return tb.Symlink("target", join(d, "s0")) },
		WarmPrime: func(tb *testbed.Testbed, d string) error { return tb.Symlink("target", join(d, "s1")) },
		Warm:      func(tb *testbed.Testbed, d string) error { return tb.Symlink("target", join(d, "s2")) },
	},
	{
		Name: "readlink",
		Setup: func(tb *testbed.Testbed, d string) error {
			return tb.Symlink("target", join(d, "l1"))
		},
		Cold: func(tb *testbed.Testbed, d string) error {
			_, err := tb.Readlink(join(d, "l1"))
			return err
		},
		WarmPrime: func(tb *testbed.Testbed, d string) error {
			_, err := tb.Readlink(join(d, "l1"))
			return err
		},
		Warm: func(tb *testbed.Testbed, d string) error {
			_, err := tb.Readlink(join(d, "l1"))
			return err
		},
	},
	{
		Name: "unlink",
		Setup: func(tb *testbed.Testbed, d string) error {
			for _, n := range []string{"u0", "u1", "u2"} {
				if err := touch(tb, join(d, n)); err != nil {
					return err
				}
			}
			return nil
		},
		Cold:      func(tb *testbed.Testbed, d string) error { return tb.Unlink(join(d, "u0")) },
		WarmPrime: func(tb *testbed.Testbed, d string) error { return tb.Unlink(join(d, "u1")) },
		Warm:      func(tb *testbed.Testbed, d string) error { return tb.Unlink(join(d, "u2")) },
	},
	{
		Name: "rmdir",
		Setup: func(tb *testbed.Testbed, d string) error {
			for _, n := range []string{"r0", "r1", "r2"} {
				if err := tb.Mkdir(join(d, n)); err != nil {
					return err
				}
			}
			return nil
		},
		Cold:      func(tb *testbed.Testbed, d string) error { return tb.Rmdir(join(d, "r0")) },
		WarmPrime: func(tb *testbed.Testbed, d string) error { return tb.Rmdir(join(d, "r1")) },
		Warm:      func(tb *testbed.Testbed, d string) error { return tb.Rmdir(join(d, "r2")) },
	},
	{
		Name:      "creat",
		Cold:      func(tb *testbed.Testbed, d string) error { return touch(tb, join(d, "c0")) },
		WarmPrime: func(tb *testbed.Testbed, d string) error { return touch(tb, join(d, "c1")) },
		Warm:      func(tb *testbed.Testbed, d string) error { return touch(tb, join(d, "c2")) },
	},
	{
		Name: "open",
		Setup: func(tb *testbed.Testbed, d string) error {
			return touch(tb, join(d, "o1"))
		},
		Cold: func(tb *testbed.Testbed, d string) error {
			f, err := tb.Open(join(d, "o1"))
			if err != nil {
				return err
			}
			return tb.Close(f)
		},
		WarmPrime: func(tb *testbed.Testbed, d string) error {
			f, err := tb.Open(join(d, "o1"))
			if err != nil {
				return err
			}
			return tb.Close(f)
		},
		Warm: func(tb *testbed.Testbed, d string) error {
			f, err := tb.Open(join(d, "o1"))
			if err != nil {
				return err
			}
			return tb.Close(f)
		},
	},
	{
		Name: "link",
		Setup: func(tb *testbed.Testbed, d string) error {
			return touch(tb, join(d, "src"))
		},
		Cold: func(tb *testbed.Testbed, d string) error {
			return tb.Link(join(d, "src"), join(d, "l0"))
		},
		WarmPrime: func(tb *testbed.Testbed, d string) error {
			return tb.Link(join(d, "src"), join(d, "la"))
		},
		Warm: func(tb *testbed.Testbed, d string) error {
			return tb.Link(join(d, "src"), join(d, "lb"))
		},
	},
	{
		Name: "rename",
		Setup: func(tb *testbed.Testbed, d string) error {
			for _, n := range []string{"m0", "m1", "m2"} {
				if err := touch(tb, join(d, n)); err != nil {
					return err
				}
			}
			return nil
		},
		Cold: func(tb *testbed.Testbed, d string) error {
			return tb.Rename(join(d, "m0"), join(d, "m0x"))
		},
		WarmPrime: func(tb *testbed.Testbed, d string) error {
			return tb.Rename(join(d, "m1"), join(d, "m1x"))
		},
		Warm: func(tb *testbed.Testbed, d string) error {
			return tb.Rename(join(d, "m2"), join(d, "m2x"))
		},
	},
	{
		Name: "trunc",
		Setup: func(tb *testbed.Testbed, d string) error {
			return tb.WriteFile(join(d, "tr"), make([]byte, 8192))
		},
		Cold: func(tb *testbed.Testbed, d string) error {
			return tb.Truncate(join(d, "tr"), 4096)
		},
		WarmPrime: func(tb *testbed.Testbed, d string) error {
			return tb.Truncate(join(d, "tr"), 2048)
		},
		Warm: func(tb *testbed.Testbed, d string) error {
			return tb.Truncate(join(d, "tr"), 1024)
		},
	},
	{
		Name: "chmod",
		Setup: func(tb *testbed.Testbed, d string) error {
			return touch(tb, join(d, "ch"))
		},
		Cold: func(tb *testbed.Testbed, d string) error {
			return tb.Chmod(join(d, "ch"), 0o640)
		},
		WarmPrime: func(tb *testbed.Testbed, d string) error {
			return tb.Chmod(join(d, "ch"), 0o600)
		},
		Warm: func(tb *testbed.Testbed, d string) error {
			return tb.Chmod(join(d, "ch"), 0o644)
		},
	},
	{
		Name: "chown",
		Setup: func(tb *testbed.Testbed, d string) error {
			return touch(tb, join(d, "cw"))
		},
		Cold: func(tb *testbed.Testbed, d string) error {
			return tb.Chown(join(d, "cw"), 10, 10)
		},
		WarmPrime: func(tb *testbed.Testbed, d string) error {
			return tb.Chown(join(d, "cw"), 11, 11)
		},
		Warm: func(tb *testbed.Testbed, d string) error {
			return tb.Chown(join(d, "cw"), 12, 12)
		},
	},
	{
		Name: "access",
		Setup: func(tb *testbed.Testbed, d string) error {
			return touch(tb, join(d, "ac"))
		},
		Cold:      func(tb *testbed.Testbed, d string) error { return tb.Access(join(d, "ac")) },
		WarmPrime: func(tb *testbed.Testbed, d string) error { return tb.Access(join(d, "ac")) },
		Warm:      func(tb *testbed.Testbed, d string) error { return tb.Access(join(d, "ac")) },
	},
	{
		Name: "stat",
		Setup: func(tb *testbed.Testbed, d string) error {
			return touch(tb, join(d, "stt"))
		},
		Cold: func(tb *testbed.Testbed, d string) error {
			_, err := tb.Stat(join(d, "stt"))
			return err
		},
		WarmPrime: func(tb *testbed.Testbed, d string) error {
			_, err := tb.Stat(join(d, "stt"))
			return err
		},
		Warm: func(tb *testbed.Testbed, d string) error {
			_, err := tb.Stat(join(d, "stt"))
			return err
		},
	},
	{
		Name: "utime",
		Setup: func(tb *testbed.Testbed, d string) error {
			return touch(tb, join(d, "ut"))
		},
		Cold:      func(tb *testbed.Testbed, d string) error { return tb.Utimes(join(d, "ut")) },
		WarmPrime: func(tb *testbed.Testbed, d string) error { return tb.Utimes(join(d, "ut")) },
		Warm:      func(tb *testbed.Testbed, d string) error { return tb.Utimes(join(d, "ut")) },
	},
}

// FindMicroOp looks an operation up by name.
func FindMicroOp(name string) (MicroOp, error) {
	for _, op := range MicroOps {
		if op.Name == name {
			return op, nil
		}
	}
	return MicroOp{}, fmt.Errorf("core: unknown micro op %q", name)
}

// MicroCount measures one (op, depth, stack, warm) cell: the number of
// protocol transactions from invocation to quiescence.
func MicroCount(opts Options, op MicroOp, depth int, stack Stack, warm bool) (int64, error) {
	mode := "cold"
	if warm {
		mode = "warm"
	}
	tb, err := opts.newBed("micro", stack,
		metrics.Tags{"op": op.Name, "depth": itoa(depth), "mode": mode})
	if err != nil {
		return 0, err
	}
	defer tb.Cluster.Close()
	if err := buildChain(tb, depth); err != nil {
		return 0, err
	}
	dir := chainPath(depth)
	if op.Setup != nil {
		if err := op.Setup(tb, dir); err != nil {
			return 0, fmt.Errorf("%s setup: %w", op.Name, err)
		}
	}
	if err := tb.ColdCache(); err != nil {
		return 0, err
	}
	if warm {
		if err := op.WarmPrime(tb, dir); err != nil {
			return 0, fmt.Errorf("%s warm prime: %w", op.Name, err)
		}
		if err := tb.Drain(); err != nil {
			return 0, err
		}
		opts.fill()
		tb.Idle(opts.WarmGap)
	}
	tb.Cluster.BeginWindow(nil)
	before := tb.Snap()
	run := op.Cold
	if warm {
		run = op.Warm
	}
	if err := run(tb, dir); err != nil {
		return 0, fmt.Errorf("%s run: %w", op.Name, err)
	}
	if err := tb.Drain(); err != nil {
		return 0, err
	}
	msgs := tb.Since(before).Messages
	tb.Cluster.EndWindow(nil, map[string]float64{"messages": float64(msgs)})
	return msgs, nil
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
	for _, op := range MicroOps {
		row := SyscallRow{Op: op.Name, Depth0: map[Stack]int64{}, Depth3: map[Stack]int64{}}
		for _, stack := range testbed.AllKinds {
			for _, depth := range []int{0, 3} {
				n, err := MicroCount(opts, op, depth, stack, warm)
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
		op, err := FindMicroOp(name)
		if err != nil {
			return nil, err
		}
		for _, warm := range []bool{false, true} {
			s := DepthSeries{Op: name, Warm: warm}
			for _, d := range depths {
				pt := DepthPoint{Depth: d, Messages: map[Stack]int64{}}
				for _, stack := range testbed.AllKinds {
					n, err := MicroCount(opts, op, d, stack, warm)
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
