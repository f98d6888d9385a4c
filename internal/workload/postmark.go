package workload

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/vfs"
)

// PostMarkConfig mirrors the PostMark 1.5 parameters the paper uses
// (Section 5.1): an initial pool of small random files, then a transaction
// mix of create/delete and read/append with equal predisposition.
type PostMarkConfig struct {
	Files        int // initial pool size (paper: 1,000 / 5,000 / 25,000)
	Transactions int // paper: 100,000
	MinSize      int // bytes (PostMark default 500)
	MaxSize      int // bytes (PostMark default 9.77 KB)
	Seed         int64
	// Subdirectories spreads the pool over n directories (PostMark's
	// -d option; 0 = flat, the default).
	Subdirectories int
	// Dir is the pool's root directory (default "/pm"; cluster clients
	// each use their own).
	Dir string
}

// DefaultPostMark returns the paper's configuration at a given pool size.
func DefaultPostMark(files int) PostMarkConfig {
	return PostMarkConfig{
		Files:        files,
		Transactions: 100000,
		MinSize:      500,
		MaxSize:      10000,
		Seed:         42,
	}
}

// PostMarkStats reports the transaction mix actually executed.
type PostMarkStats struct {
	Created, Deleted, Read, Appended int
}

// postmarkRun is the benchmark as a resumable state machine: setup, pool
// creation, the transaction loop, and final deletion, one transaction per
// step, so concurrent clients can interleave at transaction granularity.
type postmarkRun struct {
	c     Ops
	cfg   PostMarkConfig
	rng   *sim.Source
	stats PostMarkStats

	phase int // 0 setup, 1 create pool, 2 transactions, 3 delete, 4 done
	i     int // progress within the phase

	live    []int
	sizes   map[int]int
	next    int
	names   []string // by id: each file's path once name has built it
	nameBuf []byte
	text    []byte // every write's payload in turn: no layer keeps a WriteAt argument
	readBuf []byte
}

func newPostmarkRun(c Ops, cfg PostMarkConfig) (*postmarkRun, error) {
	if cfg.Files <= 0 || cfg.Transactions < 0 {
		return nil, fmt.Errorf("postmark: bad config %+v", cfg)
	}
	if cfg.Dir == "" {
		cfg.Dir = "/pm"
	}
	return &postmarkRun{
		c:     c,
		cfg:   cfg,
		rng:   sim.NewSource(cfg.Seed),
		live:  make([]int, 0, cfg.Files*2),
		sizes: make(map[int]int),
	}, nil
}

// name maps a file id to its pool path ("Dir/f7", or "Dir/s3/f7" with
// subdirectories), assembled once per id in a reused buffer: one allocation,
// the string, which every later use of the file shares.
func (p *postmarkRun) name(i int) string {
	for len(p.names) <= i {
		p.names = append(p.names, "")
	}
	if p.names[i] == "" {
		b := append(p.nameBuf[:0], p.cfg.Dir...)
		if n := p.cfg.Subdirectories; n > 0 {
			b = strconv.AppendInt(append(b, "/s"...), int64(i%n), 10)
		}
		p.nameBuf = strconv.AppendInt(append(b, "/f"...), int64(i), 10)
		p.names[i] = string(p.nameBuf)
	}
	return p.names[i]
}

func (p *postmarkRun) createFile() error {
	id := p.next
	p.next++
	size := p.cfg.MinSize + p.rng.Intn(p.cfg.MaxSize-p.cfg.MinSize+1)
	p.text = randomText(p.rng, p.text, size)
	if err := p.c.WriteFile(p.name(id), p.text); err != nil {
		return err
	}
	p.live = append(p.live, id)
	p.sizes[id] = size
	p.stats.Created++
	return nil
}

// transaction executes one PostMark transaction (the loop body).
func (p *postmarkRun) transaction() error {
	if len(p.live) == 0 {
		return p.createFile()
	}
	pick := p.rng.Intn(len(p.live))
	id := p.live[pick]
	if p.rng.Intn(2) == 0 {
		// Create or delete.
		if p.rng.Intn(2) == 0 {
			return p.createFile()
		}
		if err := p.c.Unlink(p.name(id)); err != nil {
			return err
		}
		p.live[pick] = p.live[len(p.live)-1]
		p.live = p.live[:len(p.live)-1]
		delete(p.sizes, id)
		p.stats.Deleted++
		return nil
	}
	// Read or append.
	if p.rng.Intn(2) == 0 {
		f, err := p.c.Open(p.name(id))
		if err != nil {
			return err
		}
		n := p.sizes[id]
		if n > len(p.readBuf) {
			p.readBuf = make([]byte, n)
		}
		if _, err := p.c.ReadFileAt(f, 0, p.readBuf[:n]); err != nil {
			return err
		}
		if err := p.c.Close(f); err != nil {
			return err
		}
		p.stats.Read++
		return nil
	}
	f, err := p.c.Open(p.name(id))
	if err != nil {
		return err
	}
	app := p.cfg.MinSize + p.rng.Intn(p.cfg.MaxSize-p.cfg.MinSize+1)
	p.text = randomText(p.rng, p.text, app)
	if _, err := p.c.WriteFileAt(f, int64(p.sizes[id]), p.text); err != nil {
		return err
	}
	if err := p.c.Close(f); err != nil {
		return err
	}
	p.sizes[id] += app
	p.stats.Appended++
	return nil
}

// step advances the benchmark by one transaction-sized unit of work.
func (p *postmarkRun) step() (more bool, err error) {
	switch p.phase {
	case 0:
		// Directory setup (pool root plus optional subdirectories).
		if err := p.c.Mkdir(p.cfg.Dir); err != nil {
			return false, err
		}
		for s := 0; s < p.cfg.Subdirectories; s++ {
			if err := p.c.Mkdir(fmt.Sprintf("%s/s%d", p.cfg.Dir, s)); err != nil {
				return false, err
			}
		}
		p.phase = 1
		return true, nil
	case 1:
		if err := p.createFile(); err != nil {
			return false, err
		}
		p.i++
		if p.i >= p.cfg.Files {
			p.phase, p.i = 2, 0
		}
		return true, nil
	case 2:
		if p.i >= p.cfg.Transactions {
			p.phase, p.i = 3, 0
			return true, nil
		}
		if err := p.transaction(); err != nil {
			return false, err
		}
		p.i++
		return true, nil
	case 3:
		// Deletion phase: remove remaining files.
		if p.i >= len(p.live) {
			p.phase = 4
			return false, nil
		}
		id := p.live[p.i]
		p.i++
		if err := p.c.Unlink(p.name(id)); err != nil && err != vfs.ErrNotExist {
			return false, err
		}
		p.stats.Deleted++
		return true, nil
	default:
		return false, nil
	}
}

// PostMarkSteps returns the benchmark as a step driver (one transaction
// per call) plus a live view of its transaction mix, for interleaved
// multi-client runs.
func PostMarkSteps(c Ops, cfg PostMarkConfig) (Steps, *PostMarkStats, error) {
	p, err := newPostmarkRun(c, cfg)
	if err != nil {
		return nil, nil, err
	}
	return p.step, &p.stats, nil
}

// PostMark runs the benchmark to completion and reports the result.
func PostMark(tb *testbed.Testbed, cfg PostMarkConfig) (Result, PostMarkStats, error) {
	p, err := newPostmarkRun(tb, cfg)
	if err != nil {
		return Result{}, PostMarkStats{}, err
	}
	res, err := measure(tb, fmt.Sprintf("PostMark-%d", cfg.Files), runSteps(p.step))
	if err != nil {
		return res, p.stats, err
	}
	res.Throughput = float64(cfg.Transactions) / res.Elapsed.Seconds()
	return res, p.stats, nil
}

// randomText produces n PostMark-style filler bytes in buf, which it replaces
// when too short: one draw of Intn(28) per 8-byte stride (the pinned sizes
// downstream depend on the draw sequence), the drawn character repeated
// across the stride with a single store.
func randomText(src *sim.Source, buf []byte, n int) []byte {
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	b := buf[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], uint64(textChar(src))*0x0101010101010101)
	}
	if i < n {
		ch := textChar(src)
		for ; i < n; i++ {
			b[i] = ch
		}
	}
	return b
}

// textChar is alphabet[src.Intn(len(alphabet))] with Intn's rejection bound
// and modulus as constants.
func textChar(src *sim.Source) byte {
	const alphabet = "abcdefghijklmnopqrstuvwxyz \n"
	const n = int32(len(alphabet))
	const bound = int32(1<<31 - 1 - (1<<31)%len(alphabet))
	for {
		if v := src.Int31(); v <= bound {
			return alphabet[v%n]
		}
	}
}
