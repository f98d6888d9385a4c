package workload

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/vfs"
)

// KernelConfig models the Table 8 shell benchmarks over a synthetic
// source tree shaped like the Linux 2.4 kernel: a few hundred directories
// of small C files. The paper extracts, lists, compiles and removes the
// real tree; we synthesize one with the same statistical shape.
type KernelConfig struct {
	Dirs        int           // directories (default 120)
	FilesPerDir int           // files per directory (default 30)
	MeanSize    int           // mean file size in bytes (default 12 KB)
	CompileCPU  time.Duration // client compute per compiled file
	Seed        int64
}

// DefaultKernel returns a scaled-down tree (~3,600 files, ~43 MB); the
// real 2.4 tree is about 3.5x this.
func DefaultKernel() KernelConfig {
	return KernelConfig{
		Dirs:        120,
		FilesPerDir: 30,
		MeanSize:    12 << 10,
		CompileCPU:  45 * time.Millisecond,
		Seed:        5,
	}
}

func (cfg KernelConfig) dir(d int) string       { return fmt.Sprintf("/src/dir%03d", d) }
func (cfg KernelConfig) file(d, f int) string   { return fmt.Sprintf("/src/dir%03d/file%03d.c", d, f) }
func (cfg KernelConfig) object(d, f int) string { return fmt.Sprintf("/src/dir%03d/file%03d.o", d, f) }

// KernelUntar models "tar -xzf": creating the tree (directory creation +
// small-file writes), a meta-data intensive workload.
func KernelUntar(tb *testbed.Testbed, cfg KernelConfig) (Result, error) {
	rng := sim.NewRNG(cfg.Seed)
	var text []byte
	return firstResult(measure(tb, "tar -xzf", func() error {
		if err := tb.Mkdir("/src"); err != nil {
			return err
		}
		for d := 0; d < cfg.Dirs; d++ {
			if err := tb.Mkdir(cfg.dir(d)); err != nil {
				return err
			}
			for f := 0; f < cfg.FilesPerDir; f++ {
				size := cfg.MeanSize/2 + rng.Intn(cfg.MeanSize)
				text = randomText(rng, text, size)
				if err := tb.WriteFile(cfg.file(d, f), text); err != nil {
					return err
				}
			}
		}
		return nil
	}))
}

// KernelList models "ls -lR > /dev/null": readdir + stat of every entry.
func KernelList(tb *testbed.Testbed, cfg KernelConfig) (Result, error) {
	return firstResult(measure(tb, "ls -lR", func() error {
		return lsR(tb, "/src")
	}))
}

func lsR(tb *testbed.Testbed, path string) error {
	ents, err := tb.ReadDir(path)
	if err != nil {
		return err
	}
	for _, e := range ents {
		p := path + "/" + e.Name
		st, err := tb.Stat(p)
		if err != nil {
			return err
		}
		if st.Mode.IsDir() {
			if err := lsR(tb, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// KernelCompile models "make": read every source file, burn compile CPU,
// write an object file of comparable size.
func KernelCompile(tb *testbed.Testbed, cfg KernelConfig) (Result, error) {
	rng := sim.NewRNG(cfg.Seed + 1)
	var text []byte
	return firstResult(measure(tb, "kernel compile", func() error {
		for d := 0; d < cfg.Dirs; d++ {
			for f := 0; f < cfg.FilesPerDir; f++ {
				src, err := tb.ReadFile(cfg.file(d, f))
				if err != nil {
					return err
				}
				tb.Compute(cfg.CompileCPU)
				objSize := len(src)/2 + rng.Intn(len(src)+1)
				text = randomText(rng, text, objSize)
				if err := tb.WriteFile(cfg.object(d, f), text); err != nil {
					return err
				}
			}
		}
		return nil
	}))
}

// KernelRemove models "rm -rf": unlink everything, remove directories.
func KernelRemove(tb *testbed.Testbed, cfg KernelConfig) (Result, error) {
	return firstResult(measure(tb, "rm -rf", func() error {
		return rmRF(tb, "/src")
	}))
}

func rmRF(tb *testbed.Testbed, path string) error {
	ents, err := tb.ReadDir(path)
	if err != nil {
		return err
	}
	for _, e := range ents {
		p := path + "/" + e.Name
		if e.Mode.IsDir() {
			if err := rmRF(tb, p); err != nil {
				return err
			}
		} else {
			if err := tb.Unlink(p); err != nil && err != vfs.ErrNotExist {
				return err
			}
		}
	}
	return tb.Rmdir(path)
}

func firstResult(r Result, err error) (Result, error) { return r, err }
