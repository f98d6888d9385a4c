package ext3

import (
	"time"

	"repro/internal/tracing"
	"repro/internal/vfs"
)

// bmap maps file block fb of inode n to a device block, allocating when
// alloc is set (goal hints keep file layout contiguous). Indirect blocks
// are meta-data: they are fetched through the buffer cache (cold misses
// cost wire transactions) and journaled when modified. Returns lba 0 for
// holes.
func (fs *FS) bmap(at time.Duration, n *inode, fb int64, alloc bool, goal int64) (int64, time.Duration, error) {
	done := at
	if fb < 0 {
		return 0, done, vfs.ErrInvalid
	}
	// Direct blocks.
	if fb < DirectBlocks {
		lba := int64(n.Direct[fb])
		if lba == 0 && alloc {
			if goal == 0 && fb > 0 {
				goal = int64(n.Direct[fb-1])
			}
			newLBA, d2, err := fs.allocBlock(done, goal)
			if err != nil {
				return 0, d2, err
			}
			done = d2
			n.Direct[fb] = uint32(newLBA)
			n.Blocks++
			lba = newLBA
		}
		return lba, done, nil
	}
	fb -= DirectBlocks

	// Single indirect.
	if fb < PtrsPerBlock {
		lba, _, d2, err := fs.indirectLookup(done, n, &n.Ind, fb, alloc, goal)
		return lba, d2, err
	}
	fb -= PtrsPerBlock

	// Double indirect.
	if fb < PtrsPerBlock*PtrsPerBlock {
		// First level selects a single-indirect block.
		l1 := fb / PtrsPerBlock
		l2 := fb % PtrsPerBlock
		indLBA, fresh, d2, err := fs.indirectLookup(done, n, &n.DInd, l1, alloc, goal)
		if err != nil || indLBA == 0 {
			return 0, d2, err
		}
		done = d2
		if fresh {
			// The interior block was just allocated as a data pointer;
			// initialize it as a zeroed, journaled indirect block.
			b, d3, err := fs.bc.get(done, indLBA, true)
			if err != nil {
				return 0, d3, err
			}
			done = d3
			for i := range b.data {
				b.data[i] = 0
			}
			fs.bc.markDirty(b, true)
			fs.journal.add(b)
		}
		var ind32 uint32 = uint32(indLBA)
		lba, _, d3, err := fs.indirectLookup(done, n, &ind32, l2, alloc, goal)
		if err != nil {
			return 0, d3, err
		}
		// indirectLookup cannot have changed ind32 here because indLBA
		// was non-zero.
		return lba, d3, nil
	}
	return 0, done, vfs.ErrInvalid // file too large for this layout
}

// indirectLookup resolves entry idx of the indirect block pointed to by
// *slot, allocating the indirect block and/or the entry's block when
// alloc. fresh reports whether the entry's block was allocated by this
// call (the caller initializes interior blocks it plans to use as further
// indirect levels).
func (fs *FS) indirectLookup(at time.Duration, n *inode, slot *uint32, idx int64, alloc bool, goal int64) (lba int64, fresh bool, done time.Duration, err error) {
	done = at
	if *slot == 0 {
		if !alloc {
			return 0, false, done, nil
		}
		newLBA, d2, err := fs.allocBlock(done, goal)
		if err != nil {
			return 0, false, d2, err
		}
		done = d2
		*slot = uint32(newLBA)
		n.Blocks++
		b, d3, err := fs.bc.get(done, newLBA, true)
		if err != nil {
			return 0, false, d3, err
		}
		done = d3
		for i := range b.data {
			b.data[i] = 0
		}
		fs.bc.markDirty(b, true)
		fs.journal.add(b)
	}
	b, d2, err := fs.bc.get(done, int64(*slot), false)
	if err != nil {
		return 0, false, d2, err
	}
	done = d2
	lba = int64(readPtr(b.data, idx))
	if lba == 0 && alloc {
		if goal == 0 {
			goal = int64(*slot)
		}
		newLBA, d3, err := fs.allocBlock(done, goal)
		if err != nil {
			return 0, false, d3, err
		}
		done = d3
		writePtr(b.data, idx, uint32(newLBA))
		fs.bc.markDirty(b, true)
		fs.journal.add(b)
		n.Blocks++
		lba = newLBA
		fresh = true
	}
	return lba, fresh, done, nil
}

func readPtr(block []byte, idx int64) uint32 {
	off := idx * 4
	return uint32(block[off])<<24 | uint32(block[off+1])<<16 | uint32(block[off+2])<<8 | uint32(block[off+3])
}

func writePtr(block []byte, idx int64, v uint32) {
	off := idx * 4
	block[off] = byte(v >> 24)
	block[off+1] = byte(v >> 16)
	block[off+2] = byte(v >> 8)
	block[off+3] = byte(v)
}

// raState tracks per-file sequential read-ahead.
type raState struct {
	next       int64 // expected next sequential file block
	window     int
	prefetched int64 // highest file block prefetched (exclusive)
}

// file is an open regular file.
type file struct {
	fs  *FS
	ino Ino
}

// ReadAt implements vfs.File. Contiguous uncached block runs within one
// call coalesce into single device reads (a 32 KB database extent read is
// one SCSI command, per the paper's TPC-H traffic analysis); sequential
// access triggers per-block asynchronous read-ahead, matching the
// one-command-per-4KB pattern of Table 4's sequential scans.
func (f *file) ReadAt(at time.Duration, off int64, buf []byte) (int, time.Duration, error) {
	fs := f.fs
	if !fs.mounted {
		return 0, at, vfs.ErrStale
	}
	if off < 0 {
		return 0, at, vfs.ErrInvalid
	}
	n, done, err := fs.getInode(at, f.ino)
	if err != nil {
		return 0, done, err
	}
	if off >= int64(n.Size) {
		return 0, fs.charge(done, 0), nil
	}
	if int64(len(buf))+off > int64(n.Size) {
		buf = buf[:int64(n.Size)-off]
	}
	first := off / BlockSize
	last := (off + int64(len(buf)) - 1) / BlockSize
	nblocks := int(last - first + 1)

	// Map every touched block, into an array of the call's up to 128 KB.
	var lbaBuf [32]int64
	lbas := lbaBuf[:0]
	for i := 0; i < nblocks; i++ {
		lba, d2, err := fs.bmap(done, n, first+int64(i), false, 0)
		if err != nil {
			return 0, d2, err
		}
		done = d2
		lbas = append(lbas, lba)
	}
	// Fetch uncached contiguous runs with single device reads.
	for i := 0; i < nblocks; {
		if lbas[i] == 0 || fs.bc.peek(lbas[i]) != nil {
			i++
			continue
		}
		run := 1
		for i+run < nblocks && lbas[i+run] == lbas[i]+int64(run) &&
			fs.bc.peek(lbas[i+run]) == nil && run < maxCoalesce {
			run++
		}
		data := fs.runBuf(run)
		// The miss span parents the device I/O the uncached run forces,
		// like bcache.get does for single-block misses.
		ref := fs.opts.Tracer.Begin(done, tracing.LayerCache, "miss")
		d2, err := fs.dev.ReadBlocks(done, lbas[i], data)
		fs.opts.Tracer.End(ref, d2)
		if err != nil {
			return 0, d2, err
		}
		done = d2
		for k := 0; k < run; k++ {
			fs.bc.insertPrefetch(lbas[i+k], data[k*BlockSize:(k+1)*BlockSize], done)
		}
		i += run
	}
	// Copy out (waiting for any in-flight read-ahead).
	copied := 0
	for i := 0; i < nblocks; i++ {
		fb := first + int64(i)
		bs, be := int64(0), int64(BlockSize)
		if fb == first {
			bs = off % BlockSize
		}
		if fb == last {
			be = (off+int64(len(buf))-1)%BlockSize + 1
		}
		if lbas[i] == 0 {
			for j := bs; j < be; j++ {
				buf[copied] = 0
				copied++
			}
			continue
		}
		b, d2, err := fs.bc.view(done, lbas[i])
		if err != nil {
			return copied, d2, err
		}
		done = d2
		copied += copy(buf[copied:], b.data[bs:be])
	}
	done = fs.charge(done, nblocks)

	// Sequential detection + asynchronous read-ahead.
	fs.readahead(done, f.ino, n, first, int64(nblocks))

	// Access time update (meta-data write, aggregated by the journal).
	if !fs.opts.NoAtime {
		n.Atime = int64(done)
		if d2, err := fs.putInode(done, f.ino, n); err == nil {
			done = d2
		}
	}
	done, err = fs.tick(done)
	return copied, done, err
}

// readahead issues asynchronous prefetches after *sequential* reads only
// (random access disables it, as in Linux). The prefetch request unit
// follows the triggering read's size: 4 KB application reads prefetch in
// per-block commands (the one-transaction-per-4KB pattern of Table 4's
// sequential scans), while 32 KB database extent reads prefetch in extent-
// sized commands (the 4:1 NFS:iSCSI message ratio of Table 7). Prefetch
// never blocks the caller; completions land in the buffer cache with
// their arrival times.
func (fs *FS) readahead(at time.Duration, ino Ino, n *inode, first, count int64) {
	ra, ok := fs.ra[ino]
	if !ok {
		ra = raState{window: 4}
	}
	defer func() { fs.ra[ino] = ra }()
	if first != ra.next {
		// Non-sequential: disable read-ahead, shrink the window.
		ra.window = 4
		ra.next = first + count
		ra.prefetched = first + count
		return
	}
	ra.window = min(ra.window*2, readAheadWindow)
	ra.next = first + count
	if first+count < ra.prefetched {
		return
	}
	unit := min(max(count, 1), maxCoalesce) // prefetch request size mirrors the foreground read
	end := first + count + int64(ra.window)
	maxFB := (int64(n.Size) + BlockSize - 1) / BlockSize
	if end > maxFB {
		end = maxFB
	}
	start := ra.prefetched
	if start < first+count {
		start = first + count
	}
	issueAt := at
	for fb := start; fb < end; {
		lba := fs.bmapPeek(n, fb)
		if lba == 0 || fs.bc.peek(lba) != nil {
			fb++
			continue
		}
		// Extend a contiguous run up to the unit size.
		run := int64(1)
		for run < unit && fb+run < end {
			next := fs.bmapPeek(n, fb+run)
			if next != lba+run || fs.bc.peek(next) != nil {
				break
			}
			run++
		}
		data := fs.runBuf(int(run))
		// Prefetch I/O bills to the cache layer: the op that triggered it
		// does not wait, but the wire and disk work it causes is real.
		ref := fs.opts.Tracer.Begin(issueAt, tracing.LayerCache, "readahead")
		done, err := fs.dev.ReadBlocks(issueAt, lba, data)
		fs.opts.Tracer.End(ref, done)
		if err != nil {
			break
		}
		for k := int64(0); k < run; k++ {
			fs.bc.insertPrefetch(lba+k, data[k*BlockSize:(k+1)*BlockSize], done)
		}
		fb += run
	}
	ra.prefetched = end
}

// bmapPeek maps a file block without device I/O (returns 0 if the mapping
// would require reading an uncached indirect block — read-ahead never
// triggers synchronous meta-data reads).
func (fs *FS) bmapPeek(n *inode, fb int64) int64 {
	if fb < DirectBlocks {
		return int64(n.Direct[fb])
	}
	fb -= DirectBlocks
	if fb < PtrsPerBlock {
		if n.Ind == 0 {
			return 0
		}
		b := fs.bc.peek(int64(n.Ind))
		if b == nil {
			return 0
		}
		return int64(readPtr(b.data, fb))
	}
	fb -= PtrsPerBlock
	if fb < PtrsPerBlock*PtrsPerBlock {
		if n.DInd == 0 {
			return 0
		}
		b := fs.bc.peek(int64(n.DInd))
		if b == nil {
			return 0
		}
		ind := readPtr(b.data, fb/PtrsPerBlock)
		if ind == 0 {
			return 0
		}
		lb := fs.bc.peek(int64(ind))
		if lb == nil {
			return 0
		}
		return int64(readPtr(lb.data, fb%PtrsPerBlock))
	}
	return 0
}

// WriteAt implements vfs.File. Full-block overwrites avoid
// read-modify-write; partial writes of allocated blocks read the old
// contents first (cold misses cost wire transactions). Dirty blocks stay
// in the cache until the next journal commit flushes them — the update
// aggregation and write coalescing at the heart of the paper's results.
func (f *file) WriteAt(at time.Duration, off int64, data []byte) (int, time.Duration, error) {
	return f.write(at, off, len(data), data, nil)
}

// write is WriteAt of count bytes given either as data or, cut at block
// boundaries, as blocks (see FS.WriteFileAt): the bytes for file block fb
// are data from what the blocks before it took, or blocks[fb-first]. A
// whole block of either goes to the cache by reference, which copies what
// it keeps.
func (f *file) write(at time.Duration, off int64, count int, data []byte, blocks [][]byte) (int, time.Duration, error) {
	fs := f.fs
	if !fs.mounted {
		return 0, at, vfs.ErrStale
	}
	if off < 0 {
		return 0, at, vfs.ErrInvalid
	}
	if count == 0 {
		return 0, at, nil
	}
	n, done, err := fs.getInode(at, f.ino)
	if err != nil {
		return 0, done, err
	}
	// A handle the NFS server was sent may name anything: a removed file's
	// inode is free for reuse, and only a regular file's blocks are data.
	if n.Links == 0 {
		return 0, done, vfs.ErrStale
	}
	if !vfs.Mode(n.Mode).IsRegular() {
		return 0, done, vfs.ErrInvalid
	}
	// Extending past EOF: zero the stale tail of the old final block so
	// previously-truncated content never resurfaces.
	if off > int64(n.Size) {
		if d2, err := fs.zeroEOFTail(done, n); err == nil {
			done = d2
		}
	}
	first := off / BlockSize
	last := (off + int64(count) - 1) / BlockSize
	written := 0
	var goal int64
	for fb := first; fb <= last; fb++ {
		bs, be := int64(0), int64(BlockSize)
		if fb == first {
			bs = off % BlockSize
		}
		if fb == last {
			be = (off+int64(count)-1)%BlockSize + 1
		}
		var src []byte
		if blocks != nil {
			src = blocks[fb-first]
		} else {
			src = data[written:]
		}
		fullBlock := bs == 0 && be == BlockSize
		// Establish whether the block existed before (partial writes of
		// existing blocks must read-modify-write; fresh blocks must not).
		oldLBA, d2, err := fs.bmap(done, n, fb, false, 0)
		if err != nil {
			return written, d2, err
		}
		done = d2
		hadBlock := oldLBA != 0
		lba, d2, err := fs.bmap(done, n, fb, true, goal)
		if err != nil {
			return written, d2, err
		}
		done = d2
		goal = lba
		var b *buffer
		if fullBlock {
			// No read needed, and a block of one byte repeated is shared.
			b, d2, err = fs.bc.set(done, lba, src[:BlockSize])
		} else {
			// A fresh allocation reads as zeros without a read.
			b, d2, err = fs.bc.get(done, lba, !hadBlock)
		}
		if err != nil {
			return written, d2, err
		}
		done = d2
		if !fullBlock {
			copy(b.data[bs:be], src)
		}
		written += int(be - bs)
		fs.bc.markDirty(b, false)
	}
	if newSize := uint64(off + int64(count)); newSize > n.Size {
		n.Size = newSize
	}
	n.Mtime = int64(done)
	n.Ctime = int64(done)
	if d2, err := fs.putInode(done, f.ino, n); err != nil {
		return written, d2, err
	} else {
		done = d2
	}
	done = fs.charge(done, int(last-first+1))
	done, err = fs.tick(done)
	return written, done, err
}

// Fsync implements vfs.File: ext3 fsync commits the whole journal (ordered
// data included), so a single fsync makes everything durable.
func (f *file) Fsync(at time.Duration) (time.Duration, error) { return f.fs.Sync(at) }

// Close implements vfs.File.
func (f *file) Close(at time.Duration) (time.Duration, error) {
	delete(f.fs.ra, f.ino)
	return at, nil
}

// zeroEOFTail clears the bytes past EOF in the file's final partial block
// (stale content from an earlier, larger incarnation of the file).
func (fs *FS) zeroEOFTail(at time.Duration, n *inode) (time.Duration, error) {
	size := int64(n.Size)
	if size%BlockSize == 0 {
		return at, nil
	}
	lba, done, err := fs.bmap(at, n, size/BlockSize, false, 0)
	if err != nil || lba == 0 {
		return done, err
	}
	b, done, err := fs.bc.get(done, lba, false)
	if err != nil {
		return done, err
	}
	for i := size % BlockSize; i < BlockSize; i++ {
		b.data[i] = 0
	}
	fs.bc.markDirty(b, false)
	return done, nil
}

// truncateTo shrinks or extends the file backing inode n to size.
func (fs *FS) truncateTo(at time.Duration, ino Ino, n *inode, size int64) (time.Duration, error) {
	done := at
	oldBlocks := (int64(n.Size) + BlockSize - 1) / BlockSize
	newBlocks := (size + BlockSize - 1) / BlockSize
	if newBlocks < oldBlocks {
		for fb := newBlocks; fb < oldBlocks; fb++ {
			lba, d2, err := fs.bmap(done, n, fb, false, 0)
			if err != nil {
				return d2, err
			}
			done = d2
			if lba == 0 {
				continue
			}
			if d2, err = fs.freeBlock(done, lba); err != nil {
				return d2, err
			}
			done = d2
			n.Blocks--
			fs.clearMapping(done, n, fb)
		}
		// Free indirect blocks that became empty.
		done = fs.pruneIndirects(done, n, newBlocks)
	}
	if size > int64(n.Size) {
		// Growing: the stale tail of the old EOF block must read as zero.
		if d2, err := fs.zeroEOFTail(done, n); err == nil {
			done = d2
		}
	}
	n.Size = uint64(size)
	n.Mtime = int64(done)
	n.Ctime = int64(done)
	return fs.putInode(done, ino, n)
}

// clearMapping zeroes the block pointer for fb (inode or indirect entry).
func (fs *FS) clearMapping(at time.Duration, n *inode, fb int64) {
	if fb < DirectBlocks {
		n.Direct[fb] = 0
		return
	}
	fb -= DirectBlocks
	if fb < PtrsPerBlock {
		if n.Ind == 0 {
			return
		}
		if b := fs.bc.peek(int64(n.Ind)); b != nil {
			writePtr(b.data, fb, 0)
			fs.bc.markDirty(b, true)
			fs.journal.add(b)
		}
		return
	}
	fb -= PtrsPerBlock
	if n.DInd == 0 {
		return
	}
	db := fs.bc.peek(int64(n.DInd))
	if db == nil {
		return
	}
	ind := readPtr(db.data, fb/PtrsPerBlock)
	if ind == 0 {
		return
	}
	if b := fs.bc.peek(int64(ind)); b != nil {
		writePtr(b.data, fb%PtrsPerBlock, 0)
		fs.bc.markDirty(b, true)
		fs.journal.add(b)
	}
}

// pruneIndirects frees indirect blocks wholly beyond newBlocks.
func (fs *FS) pruneIndirects(at time.Duration, n *inode, newBlocks int64) time.Duration {
	done := at
	if n.Ind != 0 && newBlocks <= DirectBlocks {
		if d2, err := fs.freeBlock(done, int64(n.Ind)); err == nil {
			done = d2
		}
		n.Ind = 0
		if n.Blocks > 0 {
			n.Blocks--
		}
	}
	if n.DInd != 0 && newBlocks <= DirectBlocks+PtrsPerBlock {
		if db := fs.bc.peek(int64(n.DInd)); db != nil {
			for i := int64(0); i < PtrsPerBlock; i++ {
				ind := readPtr(db.data, i)
				if ind != 0 {
					if d2, err := fs.freeBlock(done, int64(ind)); err == nil {
						done = d2
					}
					if n.Blocks > 0 {
						n.Blocks--
					}
				}
			}
		}
		if d2, err := fs.freeBlock(done, int64(n.DInd)); err == nil {
			done = d2
		}
		n.DInd = 0
		if n.Blocks > 0 {
			n.Blocks--
		}
	}
	return done
}
