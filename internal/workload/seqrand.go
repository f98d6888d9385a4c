package workload

import (
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/vfs"
)

// SeqRandConfig drives the Table 4 / Figure 6 experiments: a file of
// FileSize bytes accessed in ChunkSize units, sequentially or in a random
// permutation.
type SeqRandConfig struct {
	FileSize  int64 // paper: 128 MB
	ChunkSize int   // paper: 4 KB
	Seed      int64
}

// DefaultSeqRand returns the paper's parameters.
func DefaultSeqRand() SeqRandConfig {
	return SeqRandConfig{FileSize: 128 << 20, ChunkSize: 4096, Seed: 7}
}

// chunks returns the whole-chunk count (the random drivers permute whole
// chunks only, as PostMark-era tools did).
func (cfg SeqRandConfig) chunks() int { return int(cfg.FileSize / int64(cfg.ChunkSize)) }

// seqChunks returns the sequential pass's chunk count: a trailing partial
// chunk is still issued as a full-chunk operation (the drivers step `off`
// by ChunkSize while off < FileSize).
func (cfg SeqRandConfig) seqChunks() int {
	return int((cfg.FileSize + int64(cfg.ChunkSize) - 1) / int64(cfg.ChunkSize))
}

// SeqBytes reports the bytes one sequential pass transfers; RandBytes the
// bytes one random pass transfers.
func (cfg SeqRandConfig) SeqBytes() int64  { return int64(cfg.seqChunks()) * int64(cfg.ChunkSize) }
func (cfg SeqRandConfig) RandBytes() int64 { return int64(cfg.chunks()) * int64(cfg.ChunkSize) }

// writeSteps returns a driver that creates path and writes n chunks in
// the given offset order, one operation per step.
func writeSteps(c Ops, path string, cfg SeqRandConfig, fill byte, n int, order func(i int) int64) Steps {
	chunk := patternChunk(cfg.ChunkSize, fill)
	var f vfs.File
	i := 0
	return func() (bool, error) {
		if f == nil {
			var err error
			f, err = c.Create(path)
			return err == nil, err
		}
		if i < n {
			off := order(i) * int64(cfg.ChunkSize)
			i++
			if _, err := c.WriteFileAt(f, off, chunk); err != nil {
				return false, err
			}
			return true, nil
		}
		return false, c.Close(f)
	}
}

// readSteps returns a driver that opens path and reads n chunks in the
// given offset order, one operation per step.
func readSteps(c Ops, path string, cfg SeqRandConfig, n int, order func(i int) int64) Steps {
	buf := make([]byte, cfg.ChunkSize)
	var f vfs.File
	opened := false
	i := 0
	return func() (bool, error) {
		if !opened {
			var err error
			f, err = c.Open(path)
			opened = true
			return err == nil, err
		}
		if i < n {
			off := order(i) * int64(cfg.ChunkSize)
			i++
			if _, err := c.ReadFileAt(f, off, buf); err != nil {
				return false, err
			}
			return true, nil
		}
		return false, c.Close(f)
	}
}

// seqOrder is the identity chunk order.
func seqOrder(i int) int64 { return int64(i) }

// randOrder returns a deterministic random permutation order.
func randOrder(cfg SeqRandConfig) func(i int) int64 {
	perm := sim.NewRNG(cfg.Seed).Perm(cfg.chunks())
	return func(i int) int64 { return int64(perm[i]) }
}

// SequentialWriteSteps writes path start to finish, one chunk per step.
func SequentialWriteSteps(c Ops, path string, cfg SeqRandConfig) Steps {
	return writeSteps(c, path, cfg, 0x5A, cfg.seqChunks(), seqOrder)
}

// RandomWriteSteps writes every whole chunk of path in a random
// permutation.
func RandomWriteSteps(c Ops, path string, cfg SeqRandConfig) Steps {
	return writeSteps(c, path, cfg, 0xA5, cfg.chunks(), randOrder(cfg))
}

// SequentialReadSteps reads path start to finish, one chunk per step. The
// caller lays the file down first (PrepareFileSteps) and cold-caches.
func SequentialReadSteps(c Ops, path string, cfg SeqRandConfig) Steps {
	return readSteps(c, path, cfg, cfg.seqChunks(), seqOrder)
}

// RandomReadSteps reads every whole chunk of path once, in a random
// permutation.
func RandomReadSteps(c Ops, path string, cfg SeqRandConfig) Steps {
	return readSteps(c, path, cfg, cfg.chunks(), randOrder(cfg))
}

// PrepareFileSteps lays down the file the read benchmarks consume.
func PrepareFileSteps(c Ops, path string, cfg SeqRandConfig) Steps {
	return writeSteps(c, path, cfg, 0x3C, cfg.seqChunks(), seqOrder)
}

// SequentialWrite creates a file and writes it start to finish.
func SequentialWrite(tb *testbed.Testbed, cfg SeqRandConfig) (Result, error) {
	return measure(tb, "seq-write", runSteps(SequentialWriteSteps(tb, "/sw.dat", cfg)))
}

// RandomWrite writes every chunk of a new file in a random permutation.
func RandomWrite(tb *testbed.Testbed, cfg SeqRandConfig) (Result, error) {
	return measure(tb, "rand-write", runSteps(RandomWriteSteps(tb, "/rw.dat", cfg)))
}

// prepareFile lays down the file read benchmarks consume, then empties all
// caches so reads start cold (the paper's protocol).
func prepareFile(tb *testbed.Testbed, path string, cfg SeqRandConfig) error {
	if err := runSteps(PrepareFileSteps(tb, path, cfg))(); err != nil {
		return err
	}
	return tb.ColdCache()
}

// SequentialRead reads the file start to finish in chunks.
func SequentialRead(tb *testbed.Testbed, cfg SeqRandConfig) (Result, error) {
	if err := prepareFile(tb, "/sr.dat", cfg); err != nil {
		return Result{}, err
	}
	return measure(tb, "seq-read", runSteps(SequentialReadSteps(tb, "/sr.dat", cfg)))
}

// RandomRead reads every chunk once, in a random permutation.
func RandomRead(tb *testbed.Testbed, cfg SeqRandConfig) (Result, error) {
	if err := prepareFile(tb, "/rr.dat", cfg); err != nil {
		return Result{}, err
	}
	return measure(tb, "rand-read", runSteps(RandomReadSteps(tb, "/rr.dat", cfg)))
}

func patternChunk(n int, fill byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill
	}
	return b
}
