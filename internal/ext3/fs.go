package ext3

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/blockdev"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Layout: block 0 superblock, block 1 group descriptor table, blocks
// [2, 2+journal) journal area, then block groups. Each group holds its
// block bitmap, inode bitmap, inode table and data blocks, in that order.
const (
	sbBlock  = 0
	gdtBlock = 1
	jStart   = 2
)

// gdtEntrySize is the on-disk size of one group descriptor.
const gdtEntrySize = 16

// zeroRun is 64 references to the shared block of zeros: what Mkfs writes
// over the journal, 64 blocks a request. It is never written.
var zeroRun = func() (run [64][]byte) {
	for i := range run {
		run[i] = blockdev.Shared(0)
	}
	return run
}()

// FS is a mounted filesystem instance.
type FS struct {
	dev  blockdev.Device
	opts Options
	sb   *superblock
	bc   *bcache

	groupFreeBlocks []uint32
	groupFreeInodes []uint32
	// groupFull holds, per group, one run of its block bitmap known to be
	// all set (see scanBlocks): host CPU only, the allocator picks the same
	// block without it. Only allocBlock and freeBlock write a block bitmap
	// while the filesystem is mounted; Mount starts every run empty.
	groupFull []fullRun

	icache  map[Ino]*inode
	free    []*inode // what freeInode took out of icache, for newInode
	journal *journal
	ra      map[Ino]raState
	files   map[Ino]*file // one open-file handle per inode number

	lastDirGroup int         // round-robin pointer for directory spreading
	dirGroup     map[Ino]int // parent dir -> block group for its child dirs

	// dcache maps (directory, name) to an inode, like the Linux dentry
	// cache, and is simulated behaviour: a hit fetches none of the
	// directory's blocks. names holds the index of each directory past one
	// block, which is host CPU only: the blocks are fetched as without it.
	dcache map[dcacheKey]Ino
	names  map[Ino]dirIndex

	async   sim.Pending
	crashed bool
	mounted bool

	// coalesce carries one contiguous run from the device at a time
	// (ReadAt, readahead); see the ownership rule on bcache. run is the
	// pool's run buffer it was taken from, if any.
	coalesce []byte
	run      *blockdev.Run
	// refs hands one run of blocks to the device by reference (writeRuns,
	// writeCut), in refsArray until a run is longer; it keeps the longest
	// run's slice and is cleared after each run, so it keeps no block
	// reachable.
	refs      [][]byte
	refsArray [blockdev.RunBlocks][]byte
}

// runBuf returns the coalescing buffer sized for run blocks. Its content is
// whatever the previous run left; callers overwrite all of it. With a pool,
// a run of up to blockdev.RunBlocks (maxCoalesce) gets the pool's
// run buffer, which goes back where the caches die (dropCaches); otherwise
// the buffer grows to exactly the longest run asked for.
func (fs *FS) runBuf(run int) []byte {
	n := run * BlockSize
	if n > len(fs.coalesce) {
		if fs.opts.Pool != nil && run <= blockdev.RunBlocks {
			fs.run = fs.opts.Pool.TakeRun()
			fs.coalesce = fs.run[:]
		} else {
			fs.coalesce = make([]byte, n)
		}
	}
	return fs.coalesce[:n]
}

// Mkfs formats dev with a fresh filesystem and returns the completion time.
func Mkfs(at time.Duration, dev blockdev.Device, opts Options) (time.Duration, error) {
	opts.fill()
	if dev.BlockSize() != BlockSize {
		return at, fmt.Errorf("ext3: device block size %d != %d", dev.BlockSize(), BlockSize)
	}
	total := dev.NumBlocks()
	firstGroup := int64(jStart) + opts.JournalBlocks
	if total < firstGroup+64 {
		return at, fmt.Errorf("ext3: device too small: %d blocks", total)
	}
	bpg := int64(opts.BlocksPerGroup)
	ipg := int64(opts.InodesPerGroup)
	itableBlocks := ipg / InodesPerBlock
	overhead := 2 + itableBlocks // bitmap + ibitmap + itable
	groupCount := (total - firstGroup + bpg - 1) / bpg

	sb := &superblock{
		Magic:            sbMagic,
		BlocksCount:      uint64(total),
		InodesCount:      uint32(groupCount * ipg),
		BlocksPerGroup:   uint32(bpg),
		InodesPerGroup:   uint32(ipg),
		GroupCount:       uint32(groupCount),
		JournalStart:     jStart,
		JournalBlocks:    uint64(opts.JournalBlocks),
		CommitIntervalNs: int64(opts.CommitInterval),
		State:            sbStateClean,
	}
	if err := sb.checkGeometry(total); err != nil {
		return at, err
	}

	done := at
	var err error
	// Zero the journal so stale records can never replay, 64 blocks a request.
	for off := int64(0); off < opts.JournalBlocks; off += 64 {
		n := min(opts.JournalBlocks-off, 64)
		if done, err = dev.WriteRun(done, jStart+off, zeroRun[:n]); err != nil {
			return done, err
		}
	}

	// One block buffer serves every block in turn: the device keeps none.
	var refs [][]byte
	blk := make([]byte, BlockSize)
	var groupFreeBlocks, groupFreeInodes [BlockSize / gdtEntrySize]uint32
	var freeBlocksTotal, freeInodesTotal uint64
	for g := int64(0); g < groupCount; g++ {
		gStart := firstGroup + g*bpg
		gBlocks := bpg
		if gStart+gBlocks > total {
			gBlocks = total - gStart
		}
		// Block bitmap: overhead blocks and past-device tail marked used.
		clear(blk)
		used := overhead
		if used > gBlocks {
			used = gBlocks
		}
		for i := int64(0); i < used; i++ {
			blk[i/8] |= 1 << uint(i%8)
		}
		for i := gBlocks; i < bpg; i++ {
			blk[i/8] |= 1 << uint(i%8)
		}
		freeB := gBlocks - used
		if freeB < 0 {
			freeB = 0
		}
		done, err = writeCut(dev, done, gStart, blk, &refs)
		if err != nil {
			return done, err
		}
		// Inode bitmap: inodes 1 (reserved) and 2 (root) used in group 0.
		clear(blk)
		freeI := ipg
		if g == 0 {
			blk[0] |= 0b11 // inode indices 0,1 => inos 1,2
			freeI -= 2
		}
		done, err = writeCut(dev, done, gStart+1, blk, &refs)
		if err != nil {
			return done, err
		}
		freeBlocksTotal += uint64(freeB)
		freeInodesTotal += uint64(freeI)
		groupFreeBlocks[g], groupFreeInodes[g] = uint32(freeB), uint32(freeI)
	}

	// Root directory: inode 2, one data block with "." and "..".
	rootDataLBA := firstGroup + overhead // first data block of group 0
	// Mark it used in group 0's bitmap.
	done, err = dev.ReadBlocks(done, firstGroup, blk)
	if err != nil {
		return done, err
	}
	idx := rootDataLBA - firstGroup
	blk[idx/8] |= 1 << uint(idx%8)
	done, err = writeCut(dev, done, firstGroup, blk, &refs)
	if err != nil {
		return done, err
	}
	freeBlocksTotal--
	groupFreeBlocks[0]--

	direntInitBlock(blk, RootIno, RootIno)
	done, err = writeCut(dev, done, rootDataLBA, blk, &refs)
	if err != nil {
		return done, err
	}
	root := &inode{
		Mode:   uint16(vfs.ModeDir | 0o755),
		Links:  2,
		Size:   BlockSize,
		Blocks: 1,
	}
	root.Direct[0] = uint32(rootDataLBA)
	clear(blk)
	encodeInode(root, blk[InodeSize:2*InodeSize]) // ino 2 = index 1
	done, err = writeCut(dev, done, firstGroup+2, blk, &refs)
	if err != nil {
		return done, err
	}

	done, err = writeCut(dev, done, gdtBlock, encodeGDT(blk, groupFreeBlocks[:groupCount], groupFreeInodes[:groupCount]), &refs)
	if err != nil {
		return done, err
	}
	sb.FreeBlocks = freeBlocksTotal
	sb.FreeInodes = freeInodesTotal
	return writeCut(dev, done, sbBlock, sb.encode(blk), &refs)
}

// Mount attaches a filesystem, recovering the journal if the previous
// instance crashed. Returns the FS and mount completion time.
func Mount(at time.Duration, dev blockdev.Device, opts Options) (*FS, time.Duration, error) {
	opts.fill()
	blk := make([]byte, BlockSize)
	done, err := dev.ReadBlocks(at, sbBlock, blk)
	if err != nil {
		return nil, done, err
	}
	sb, err := decodeSuperblock(blk)
	if err == nil {
		err = sb.checkGeometry(dev.NumBlocks())
	}
	if err != nil {
		return nil, done, err
	}
	bc := newBcache(dev, opts.CacheBlocks, opts.Pool)
	bc.tracer = opts.Tracer
	fs := &FS{
		dev:      dev,
		opts:     opts,
		sb:       sb,
		bc:       bc,
		icache:   make(map[Ino]*inode),
		ra:       make(map[Ino]raState),
		files:    make(map[Ino]*file),
		dirGroup: make(map[Ino]int),
		dcache:   make(map[dcacheKey]Ino),
		names:    make(map[Ino]dirIndex),
	}
	fs.refs = fs.refsArray[:0]
	fs.journal = newJournal(fs, int64(sb.JournalStart), int64(sb.JournalBlocks))
	fs.journal.lastCommit = at

	// Group descriptor table, read into the superblock's buffer.
	gdt := blk
	done, err = dev.ReadBlocks(done, gdtBlock, gdt)
	if err != nil {
		return nil, done, err
	}
	fs.groupFreeBlocks = make([]uint32, sb.GroupCount)
	fs.groupFreeInodes = make([]uint32, sb.GroupCount)
	fs.groupFull = make([]fullRun, sb.GroupCount)
	for g := uint32(0); g < sb.GroupCount; g++ {
		fs.groupFreeBlocks[g] = binary.BigEndian.Uint32(gdt[g*gdtEntrySize:])
		fs.groupFreeInodes[g] = binary.BigEndian.Uint32(gdt[g*gdtEntrySize+4:])
	}

	if sb.State == sbStateDirty {
		if _, done, err = recoverJournal(done, fs); err != nil {
			return nil, done, err
		}
	}
	sb.State = sbStateDirty
	if done, err = fs.writeSuperblock(done); err != nil {
		return nil, done, err
	}
	// Warm the root inode, as the real mount path does.
	if _, done, err = fs.getInode(done, RootIno); err != nil {
		return nil, done, err
	}
	fs.mounted = true
	return fs, done, nil
}

// writeSuperblock persists the superblock (direct write, not journaled —
// matching how ext3 treats its own superblock fields we model).
func (fs *FS) writeSuperblock(at time.Duration) (time.Duration, error) {
	return writeCut(fs.dev, at, sbBlock, fs.sb.encode(fs.runBuf(1)), &fs.refs)
}

// writeGDT persists group free counts.
func (fs *FS) writeGDT(at time.Duration) (time.Duration, error) {
	gdt := encodeGDT(make([]byte, BlockSize), fs.groupFreeBlocks, fs.groupFreeInodes)
	return writeCut(fs.dev, at, gdtBlock, gdt, &fs.refs)
}

// encodeGDT fills b, one block, with the group descriptors of groups whose
// free blocks and inodes freeBlocks and freeInodes count, and returns it.
func encodeGDT(b []byte, freeBlocks, freeInodes []uint32) []byte {
	clear(b)
	for g := range freeBlocks {
		binary.BigEndian.PutUint32(b[g*gdtEntrySize:], freeBlocks[g])
		binary.BigEndian.PutUint32(b[g*gdtEntrySize+4:], freeInodes[g])
	}
	return b
}

// writeCut writes data, whole blocks, at lba as one run handed to dev by
// reference: data cut into *refs, scratch that is cleared again, so it keeps
// no block reachable.
func writeCut(dev blockdev.Device, at time.Duration, lba int64, data []byte, refs *[][]byte) (time.Duration, error) {
	*refs = blockdev.Cut((*refs)[:0], 0, data)
	defer clear(*refs)
	return dev.WriteRun(at, lba, *refs)
}

// charge bills CPU demand for an operation touching nblocks blocks.
func (fs *FS) charge(at time.Duration, nblocks int) time.Duration {
	c := fs.opts.CPU
	if c == nil || c.Run == nil {
		return at
	}
	return c.Run(at, c.PerOp+time.Duration(nblocks)*c.PerBlock)
}

// ---- group geometry ----

func (fs *FS) firstGroupBlock() int64 {
	return int64(fs.sb.JournalStart) + int64(fs.sb.JournalBlocks)
}

func (fs *FS) groupStart(g int) int64 {
	return fs.firstGroupBlock() + int64(g)*int64(fs.sb.BlocksPerGroup)
}

func (fs *FS) itableStart(g int) int64 { return fs.groupStart(g) + 2 }

func (fs *FS) groupOverhead() int64 {
	return 2 + int64(fs.sb.InodesPerGroup)/InodesPerBlock
}

// blockGroup maps an lba to its group, or -1 for layout blocks.
func (fs *FS) blockGroup(lba int64) int {
	fg := fs.firstGroupBlock()
	if lba < fg {
		return -1
	}
	return int((lba - fg) / int64(fs.sb.BlocksPerGroup))
}

// ---- allocators ----

// allocBlock allocates one data block, preferring the group containing
// goal (0 = any). The touched bitmap joins the running transaction.
func (fs *FS) allocBlock(at time.Duration, goal int64) (int64, time.Duration, error) {
	startGroup := 0
	if goal > 0 {
		if g := fs.blockGroup(goal); g >= 0 {
			startGroup = g
		}
	}
	n := int(fs.sb.GroupCount)
	for i := 0; i < n; i++ {
		g := (startGroup + i) % n
		if fs.groupFreeBlocks[g] == 0 {
			continue
		}
		gStart := fs.groupStart(g)
		b, done, err := fs.bc.get(at, gStart, false)
		if err != nil {
			return 0, done, err
		}
		at = done
		bpg := int(fs.sb.BlocksPerGroup)
		// Prefer the bit right after goal for contiguous file layout.
		from := 0
		if goal > 0 && fs.blockGroup(goal) == g {
			from = int(goal + 1 - gStart)
			if from < 0 || from >= bpg {
				from = 0
			}
		}
		idx := fs.scanBlocks(g, b.data, from, bpg)
		if idx < 0 {
			idx = fs.scanBlocks(g, b.data, 0, from) // wrap around below the goal
		}
		if idx < 0 {
			continue
		}
		b.data[idx/8] |= 1 << uint(idx%8)
		fs.bc.markDirty(b, true)
		fs.journal.add(b)
		fs.groupFreeBlocks[g]--
		fs.sb.FreeBlocks--
		return gStart + int64(idx), at, nil
	}
	return 0, at, vfs.ErrNoSpace
}

// fullRun is the bits [lo, hi) of one group's block bitmap, all set.
type fullRun struct{ lo, hi int }

// scanBlocks is firstClear over group g's block bitmap bm in [from, end),
// started past g's full run when from lies inside it. The caller sets the
// bit it returns, so a hit at idx grows the run to [lo, idx+1) when from lay
// inside the run or at its end, and makes it [from, idx+1) otherwise. A file
// grown by 4 KB writes asks from its indirect block every time; without the
// run each allocation would rescan every block the file owns.
func (fs *FS) scanBlocks(g int, bm []byte, from, end int) int {
	r := &fs.groupFull[g]
	start := from
	if r.lo <= from && from < r.hi {
		start = r.hi
	}
	idx := firstClear(bm, start, end)
	if idx < 0 {
		return -1
	}
	if r.lo <= from && from <= r.hi {
		r.hi = idx + 1
	} else {
		*r = fullRun{from, idx + 1}
	}
	return idx
}

// firstClear returns the lowest clear bit of bitmap bm in [lo, hi), or -1: bit
// by bit up to a 64-bit boundary, a word at a time (Linux's find_next_zero_bit),
// then the tail. It is the reference scanBlocks must agree with.
// hi ≤ 8·len(bm): bm is one block, and checkGeometry bounds both per-group
// counts by a block's bits.
func firstClear(bm []byte, lo, hi int) int {
	for lo < hi {
		if lo%64 == 0 && hi-lo >= 64 {
			if w := ^binary.LittleEndian.Uint64(bm[lo/8:]); w != 0 {
				return lo + bits.TrailingZeros64(w)
			}
			lo += 64
		} else if bm[lo/8]&(1<<uint(lo%8)) == 0 {
			return lo
		} else {
			lo++
		}
	}
	return -1
}

// freeBlock releases a data block.
func (fs *FS) freeBlock(at time.Duration, lba int64) (time.Duration, error) {
	g := fs.blockGroup(lba)
	if g < 0 || g >= int(fs.sb.GroupCount) {
		return at, fmt.Errorf("ext3: freeing out-of-range block %d", lba)
	}
	gStart := fs.groupStart(g)
	b, done, err := fs.bc.get(at, gStart, false)
	if err != nil {
		return done, err
	}
	idx := lba - gStart
	if b.data[idx/8]&(1<<uint(idx%8)) == 0 {
		return done, fmt.Errorf("ext3: double free of block %d", lba)
	}
	b.data[idx/8] &^= 1 << uint(idx%8)
	if r := &fs.groupFull[g]; r.lo <= int(idx) && int(idx) < r.hi {
		r.hi = int(idx) // the run ends at the freed bit
	}
	fs.bc.markDirty(b, true)
	fs.journal.add(b)
	fs.groupFreeBlocks[g]++
	fs.sb.FreeBlocks++
	// Drop any cached content for the freed block.
	if cb := fs.bc.peek(lba); cb != nil && !cb.meta {
		fs.bc.cleanData(cb)
	}
	return done, nil
}

// allocInode allocates an inode number. Regular files and symlinks go near
// goalGroup (their parent directory's group, for locality); directories
// follow an Orlov-style policy: the first child directory of a parent is
// placed in a fresh block group (spreading), and subsequent siblings join
// it (clustering). Spreading gives each level of a nested directory chain
// its own inode-table block — the two-extra-messages-per-level cold-cache
// slope of the paper's Figure 4 — while clustering keeps sibling meta-data
// warm, matching Table 3's depth-independent warm costs.
func (fs *FS) allocInode(at time.Duration, goalGroup int, dirParent Ino) (Ino, time.Duration, error) {
	n := int(fs.sb.GroupCount)
	if dirParent != 0 {
		g, ok := fs.dirGroup[dirParent]
		if !ok {
			fs.lastDirGroup = (fs.lastDirGroup + 1) % n
			g = fs.lastDirGroup
			fs.dirGroup[dirParent] = g
		}
		goalGroup = g
	}
	if goalGroup < 0 || goalGroup >= n {
		goalGroup = 0
	}
	for i := 0; i < n; i++ {
		g := (goalGroup + i) % n
		if fs.groupFreeInodes[g] == 0 {
			continue
		}
		b, done, err := fs.bc.get(at, fs.groupStart(g)+1, false)
		if err != nil {
			return 0, done, err
		}
		at = done
		ipg := int(fs.sb.InodesPerGroup)
		idx := firstClear(b.data, 0, ipg)
		if idx < 0 {
			continue
		}
		b.data[idx/8] |= 1 << uint(idx%8)
		fs.bc.markDirty(b, true)
		fs.journal.add(b)
		fs.groupFreeInodes[g]--
		fs.sb.FreeInodes--
		return Ino(g*ipg+idx) + 1, at, nil
	}
	return 0, at, vfs.ErrNoSpace
}

// freeInode releases an inode number.
func (fs *FS) freeInode(at time.Duration, ino Ino) (time.Duration, error) {
	ipg := int(fs.sb.InodesPerGroup)
	g := int(ino-1) / ipg
	idx := int(ino-1) % ipg
	if g >= int(fs.sb.GroupCount) {
		return at, fmt.Errorf("ext3: freeing out-of-range inode %d", ino)
	}
	b, done, err := fs.bc.get(at, fs.groupStart(g)+1, false)
	if err != nil {
		return done, err
	}
	b.data[idx/8] &^= 1 << uint(idx%8)
	fs.bc.markDirty(b, true)
	fs.journal.add(b)
	fs.groupFreeInodes[g]++
	fs.sb.FreeInodes++
	if n := fs.icache[ino]; n != nil {
		fs.free = append(fs.free, n)
	}
	delete(fs.icache, ino)
	delete(fs.names, ino)
	return done, nil
}

// ---- inode I/O ----

// inodeLBA returns the inode-table block and byte offset for ino.
func (fs *FS) inodeLBA(ino Ino) (lba int64, slotOff int, err error) {
	if ino < 1 || uint32(ino) > fs.sb.InodesCount {
		return 0, 0, vfs.ErrStale
	}
	ipg := int(fs.sb.InodesPerGroup)
	g := int(ino-1) / ipg
	idx := int(ino-1) % ipg
	return fs.itableStart(g) + int64(idx/InodesPerBlock), (idx % InodesPerBlock) * InodeSize, nil
}

// getInode fetches an inode (icache first, then inode-table block).
func (fs *FS) getInode(at time.Duration, ino Ino) (*inode, time.Duration, error) {
	if n, ok := fs.icache[ino]; ok {
		return n, at, nil
	}
	lba, off, err := fs.inodeLBA(ino)
	if err != nil {
		return nil, at, err
	}
	b, done, err := fs.bc.get(at, lba, false)
	if err != nil {
		return nil, done, err
	}
	n := fs.newInode(decodeInode(b.data[off : off+InodeSize]))
	fs.icache[ino] = n
	return n, done, nil
}

// newInode returns v in an inode for the icache, reusing one freeInode
// released: nothing uses an inode after the operation that freed it.
func (fs *FS) newInode(v inode) *inode {
	var n *inode
	if k := len(fs.free) - 1; k >= 0 {
		n, fs.free = fs.free[k], fs.free[:k]
	} else {
		n = new(inode)
	}
	*n = v
	return n
}

// handle returns ino's open-file handle, the immutable pair (fs, ino): one
// per inode number serves every open of it until the caches drop.
func (fs *FS) handle(ino Ino) *file {
	f := fs.files[ino]
	if f == nil {
		f = &file{fs: fs, ino: ino}
		fs.files[ino] = f
	}
	return f
}

// putInode writes an inode through to its table block and the journal.
func (fs *FS) putInode(at time.Duration, ino Ino, n *inode) (time.Duration, error) {
	lba, off, err := fs.inodeLBA(ino)
	if err != nil {
		return at, err
	}
	b, done, err := fs.bc.get(at, lba, false)
	if err != nil {
		return done, err
	}
	encodeInode(n, b.data[off:off+InodeSize])
	fs.bc.markDirty(b, true)
	fs.journal.add(b)
	fs.icache[ino] = n
	return done, nil
}

// ---- flushing, commit policy ----

// flushData writes all dirty file-data blocks, coalescing contiguous runs
// into single device writes (up to maxCoalesce blocks — the mechanism that
// produces the ~128 KB mean write request the paper reports in Table 4).
func (fs *FS) flushData(at time.Duration) (time.Duration, error) {
	bc := fs.bc
	return fs.writeRuns(at, bc.dirty.Next, func(lba int64) []byte { return bc.peek(lba).data }, func(lba int64) {
		bc.cleanData(bc.peek(lba))
	})
}

// writeRuns writes home the blocks next walks in ascending order (next
// returns the first at or after its argument, or -1): contiguous blocks
// coalesce into one device write of at most maxCoalesce blocks, and the runs
// are issued concurrently at `at`, since destaging parallelizes across the
// array's members; completion is the slowest run. data gives a block's
// content, which goes to the device by reference (a cached block is not
// copied or compared again on the way), and written (if not nil) is told of
// each block once its run is on the device.
func (fs *FS) writeRuns(at time.Duration, next func(int64) int64, data func(int64) []byte, written func(int64)) (time.Duration, error) {
	done := at
	for lba := next(0); lba >= 0; {
		run := int64(1)
		for run < maxCoalesce && next(lba+run) == lba+run {
			run++
		}
		refs := fs.refs[:0]
		for k := int64(0); k < run; k++ {
			refs = append(refs, data(lba+k))
		}
		d, err := fs.dev.WriteRun(at, lba, refs)
		clear(refs)
		fs.refs = refs
		if err != nil {
			return d, err
		}
		done = max(done, d)
		if written != nil {
			for k := int64(0); k < run; k++ {
				written(lba + k)
			}
		}
		lba = next(lba + run)
	}
	return done, nil
}

// dirtyWork reports whether anything needs committing.
func (fs *FS) dirtyWork() bool {
	return len(fs.journal.running) > 0 || fs.bc.dirty.Len() > 0
}

// tick applies the commit policy at the end of each operation: a periodic
// asynchronous commit every CommitInterval (kjournald), plus synchronous
// throttling when too much dirty data accumulates (pdflush backpressure).
// With SyncMetadata set, every transaction commits before returning — the
// NFS server's export mode. Returns the (possibly delayed) caller time.
//
// Being every operation's tail call, its entry is where no operation holds a
// buffer any more: the blocks of what the cache dropped go back to the pool.
func (fs *FS) tick(at time.Duration) (time.Duration, error) {
	fs.bc.reclaim()
	if !fs.dirtyWork() {
		return at, nil
	}
	if fs.opts.SyncMetadata {
		return fs.journal.commit(at)
	}
	if fs.bc.dirty.Len() > maxDirtyData {
		// Throttle the writer synchronously.
		return fs.journal.commit(at)
	}
	if at-fs.journal.lastCommit >= fs.opts.CommitInterval {
		fs.journal.lastCommit = at
		done, err := fs.journal.commit(at)
		if err != nil {
			return at, err
		}
		fs.async.Add(done) // background kjournald: caller does not wait
	}
	return at, nil
}

// Mounted reports whether the filesystem is attached and usable.
func (fs *FS) Mounted() bool { return fs.mounted }

// Sync commits all dirty state and waits for background work: the
// fsync/sync(2) analogue and the measurement harness's drain point.
func (fs *FS) Sync(at time.Duration) (time.Duration, error) {
	if !fs.mounted {
		return at, vfs.ErrStale
	}
	done, err := fs.journal.commit(at)
	if err != nil {
		return done, err
	}
	fs.journal.lastCommit = at
	if h := fs.async.Horizon(); h > done {
		done = h
	}
	return done, nil
}

// Unmount syncs, checkpoints the journal home, and marks the superblock
// clean. The FS is unusable afterwards. A crashed filesystem cannot be
// unmounted — it must be remounted so recovery replays the journal;
// writing a clean superblock here would silently discard committed state.
func (fs *FS) Unmount(at time.Duration) (time.Duration, error) {
	if !fs.mounted {
		return at, vfs.ErrStale
	}
	done, err := fs.Sync(at)
	if err != nil {
		return done, err
	}
	if done, err = fs.journal.checkpointAll(done); err != nil {
		return done, err
	}
	if done, err = fs.writeGDT(done); err != nil {
		return done, err
	}
	fs.sb.State = sbStateClean
	if done, err = fs.writeSuperblock(done); err != nil {
		return done, err
	}
	fs.dropCaches()
	return done, nil
}

// dropCaches discards every cache and gives the pool the run buffer, leaving
// the filesystem unmounted (Unmount, Crash).
func (fs *FS) dropCaches() {
	fs.bc.dropAll()
	if fs.run != nil {
		fs.opts.Pool.PutRun(fs.run)
	}
	fs.run, fs.coalesce = nil, nil
	fs.icache = make(map[Ino]*inode)
	fs.free = nil
	clear(fs.files)
	fs.dcache = make(map[dcacheKey]Ino)
	fs.names = make(map[Ino]dirIndex)
	fs.mounted = false
}

// Crash models a client power failure: all volatile state (caches, the
// running transaction, dirty data) vanishes. Committed journal records
// remain on the device for recovery at next mount. The superblock stays
// dirty, so the next Mount runs recovery.
func (fs *FS) Crash() {
	fs.dropCaches() // the running transaction's buffers, and their flags, go with them
	fs.journal.dropRunning(len(fs.journal.running))
	fs.journal.unCheckpointed = nil
	fs.crashed = true
}

// injectCrashDuringCommit arms (or disarms) a fault: the next commit writes
// the journal body but "crashes" before the commit record.
func (fs *FS) injectCrashDuringCommit(on bool) { fs.journal.failAfterBody = on }

// AsyncHorizon exposes the background-work completion time (for drains).
func (fs *FS) AsyncHorizon() time.Duration { return fs.async.Horizon() }

// CacheStats reports buffer cache behaviour (tests, ablations).
func (fs *FS) CacheStats() (hits, misses, evictions int64) {
	return fs.bc.stats.Hits, fs.bc.stats.Misses, fs.bc.stats.Evictions
}

// journalStats reports commit/checkpoint counts.
func (fs *FS) journalStats() (commits, checkpoints int64) {
	return fs.journal.Commits, fs.journal.Checkpoints
}

// Counters exports buffer-cache and journal counters for the metrics
// event stream (metrics.SubsysExt3; see docs/METRICS.md).
func (fs *FS) Counters() map[string]int64 {
	return map[string]int64{
		"cache_hits":          fs.bc.stats.Hits,
		"cache_misses":        fs.bc.stats.Misses,
		"cache_evictions":     fs.bc.stats.Evictions,
		"readahead_hits":      fs.bc.stats.ReadAheadHits,
		"journal_commits":     fs.journal.Commits,
		"journal_checkpoints": fs.journal.Checkpoints,
	}
}

// FreeBlocks reports the free-block count (allocator invariant checks).
func (fs *FS) FreeBlocks() uint64 { return fs.sb.FreeBlocks }

// FreeInodes reports the free-inode count.
func (fs *FS) FreeInodes() uint64 { return fs.sb.FreeInodes }

// inodeGroupGoal returns a block-allocation goal inside ino's group (used
// so a directory's data lands in the directory's own group).
func (fs *FS) inodeGroupGoal(ino Ino) int64 {
	g := int(ino-1) / int(fs.sb.InodesPerGroup)
	return fs.groupStart(g) + fs.groupOverhead()
}
