package workload

import (
	"fmt"
	"math/rand"
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
	return measure(tb, "tar -xzf", func() error {
		return cfg.writeTree(tb, rng, false)
	})
}

// KernelList models "ls -lR > /dev/null": readdir + stat of every entry.
func KernelList(tb *testbed.Testbed, cfg KernelConfig) (Result, error) {
	return measure(tb, "ls -lR", func() error {
		return walkTree(tb, "/src", false)
	})
}

// KernelCompile models "make": read every source file, burn compile CPU,
// write an object file of comparable size.
func KernelCompile(tb *testbed.Testbed, cfg KernelConfig) (Result, error) {
	rng := sim.NewRNG(cfg.Seed + 1)
	return measure(tb, "kernel compile", func() error {
		return cfg.writeTree(tb, rng, true)
	})
}

// KernelRemove models "rm -rf": unlink everything, remove directories.
func KernelRemove(tb *testbed.Testbed, cfg KernelConfig) (Result, error) {
	return measure(tb, "rm -rf", func() error {
		return walkTree(tb, "/src", true)
	})
}

// writeTree is the per-file loop under untar and compile: it writes one
// file of generated text for every source file of the tree. Untar first
// makes each directory and writes the source file itself; compile reads the
// source, computes on it and writes its object file.
func (cfg KernelConfig) writeTree(tb *testbed.Testbed, rng *rand.Rand, compile bool) error {
	if !compile {
		if err := tb.Mkdir("/src"); err != nil {
			return err
		}
	}
	var text []byte
	for d := 0; d < cfg.Dirs; d++ {
		if !compile {
			if err := tb.Mkdir(cfg.dir(d)); err != nil {
				return err
			}
		}
		for f := 0; f < cfg.FilesPerDir; f++ {
			path, size := cfg.file(d, f), 0
			if compile {
				src, err := tb.ReadFile(path)
				if err != nil {
					return err
				}
				tb.Compute(cfg.CompileCPU)
				path, size = cfg.object(d, f), len(src)/2+rng.Intn(len(src)+1)
			} else {
				size = cfg.MeanSize/2 + rng.Intn(cfg.MeanSize)
			}
			text = randomText(rng, text, size)
			if err := tb.WriteFile(path, text); err != nil {
				return err
			}
		}
	}
	return nil
}

// walkTree is the tree walk under "ls -lR" and "rm -rf": it lists path and
// visits every entry depth-first. Listing stats each entry and descends
// into the directories; removing descends into the directories, unlinks
// everything else and removes path once it is empty.
func walkTree(tb *testbed.Testbed, path string, remove bool) error {
	ents, err := tb.ReadDir(path)
	if err != nil {
		return err
	}
	for _, e := range ents {
		p := path + "/" + e.Name
		dir := e.Mode.IsDir()
		if !remove {
			st, err := tb.Stat(p)
			if err != nil {
				return err
			}
			dir = st.Mode.IsDir()
		}
		switch {
		case dir:
			if err := walkTree(tb, p, remove); err != nil {
				return err
			}
		case remove:
			if err := tb.Unlink(p); err != nil && err != vfs.ErrNotExist {
				return err
			}
		}
	}
	if remove {
		return tb.Rmdir(path)
	}
	return nil
}
