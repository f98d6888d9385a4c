package nfs

import (
	"time"

	"repro/internal/blockdev"
	"repro/internal/ext3"
	"repro/internal/vfs"
)

// pageSize is the client page cache granularity (4 KB, like Linux).
const pageSize = blockdev.BlockSize

// pageKey names page idx of file ino. The page cache and the write-behind
// queue index it as one word, id.
type pageKey struct {
	ino uint64
	idx int64
}

// maxPageWord bounds both halves of a packed page key: an ext3 inode number
// is 32 bits, and an ext3 file has fewer than 2^21 pages.
const maxPageWord = 1<<32 - 1

// id packs k as ino<<32 | idx, exact for every key pageRange admits.
func (k pageKey) id() uint64 { return k.ino<<32 | uint64(k.idx) }

// pageRange returns the first and last page of n bytes at off in file ino,
// refusing with vfs.ErrInvalid a range whose keys id cannot pack exactly
// (a negative offset, an index or inode number past 32 bits) rather than
// folding it onto another file's or another offset's page.
func pageRange(ino uint64, off, n int64) (first, last int64, err error) {
	first, last = off/pageSize, (off+n-1)/pageSize
	if ino > maxPageWord || off < 0 || last > maxPageWord {
		return 0, 0, vfs.ErrInvalid
	}
	return first, last, nil
}

type page struct {
	key     pageKey
	data    []byte
	dirty   bool
	readyAt time.Duration

	newer, older *page // LRU ring through pageCache.lru
	fnext, fprev *page // the other cached pages of key.ino
}

// pageCache is the client's file data cache with LRU eviction; dirty pages
// are pinned until the write-behind pool flushes them.
//
// Every cached page is in three places at once: the pages map (by key), the
// LRU ring (lru is its sentinel: lru.older is the most recently used page,
// lru.newer the eviction end) and the chain of its file (byFile holds the
// head; a file with no cached page has no entry). Only link puts a page
// there, and only unlink (one page) and dropFile (a whole chain) take pages
// out, of all three. So dropFile follows one chain: it costs the dropped
// file's pages, and nothing for a file with none, whatever else is cached.
//
// Block memory follows content (see package blockdev): a page's data is
// either the shared read-only block of one byte repeated or one whole private
// block from pool (nil: the heap). insert and a whole-page write make a page
// whatever its new content is (Pool.Load, Pool.replace); a page becomes private
// where bytes land in only part of it: WriteAt's partial pages, writeSync's
// coherence copy and truncate's clear (Pool.Writable). Nothing else writes a
// page's data.
//
// A private block goes back where the cache drops it. The hold rule is scoped
// to the syscall: a *page obtained during one client syscall is not used
// after it returns. Write-behind, the only thing that outlives a syscall,
// queues page keys, and its pages are dirty, which evict never picks. Inside
// a syscall pages are held across evictions (ReadAt copies out of pages its
// own later inserts evicted), so evict and dropFile only retire what they
// unlink, and a private block a shared one replaces is only retired too;
// reclaim, which nfsFile.ReadAt and WriteAt run on entry, frees retired pages,
// which mem's slab hands out again with a pool or without one, and gives
// their blocks to the pool.
type pageCache struct {
	max    int
	pages  map[uint64]*page // by key id
	byFile map[uint64]*page
	lru    page
	// mem holds the pool, the pages, those unlinked since the last reclaim
	// and the blocks Replace displaced.
	mem blockdev.Reclaimer[page]
}

func newPageCache(max int, pool *blockdev.Pool) *pageCache {
	pc := &pageCache{max: max, mem: blockdev.Reclaimer[page]{Pool: pool}, pages: make(map[uint64]*page), byFile: make(map[uint64]*page)}
	pc.lru.newer, pc.lru.older = &pc.lru, &pc.lru
	return pc
}

func (pc *pageCache) peek(k pageKey) *page { return pc.pages[k.id()] }

// touch makes p the most recently used page.
func (pc *pageCache) touch(p *page) {
	lruRemove(p)
	pc.pushFront(p)
}

func (pc *pageCache) pushFront(p *page) {
	p.newer, p.older = &pc.lru, pc.lru.older
	p.older.newer, pc.lru.older = p, p
}

func lruRemove(p *page) { p.newer.older, p.older.newer = p.older, p.newer }

// link adds a new page as the most recently used one and the head of its
// file's chain.
func (pc *pageCache) link(p *page) {
	pc.pages[p.key.id()] = p
	pc.pushFront(p)
	if p.fnext = pc.byFile[p.key.ino]; p.fnext != nil {
		p.fnext.fprev = p
	}
	pc.byFile[p.key.ino] = p
}

// unlink removes p from the map, the LRU ring and its file's chain.
func (pc *pageCache) unlink(p *page) {
	delete(pc.pages, p.key.id())
	lruRemove(p)
	if p.fnext != nil {
		p.fnext.fprev = p.fprev
	}
	switch {
	case p.fprev != nil:
		p.fprev.fnext = p.fnext
	case p.fnext != nil:
		pc.byFile[p.key.ino] = p.fnext
	default:
		delete(pc.byFile, p.key.ino)
	}
}

// insert caches a copy of data as page k, zero-extended to a whole page when
// data is short (the tail of a file, or none). The new page is never its own
// insert's victim: the caller is about to fill or read it.
func (pc *pageCache) insert(k pageKey, data []byte, readyAt time.Duration) *page {
	if p, ok := pc.pages[k.id()]; ok {
		p.data = pc.mem.Replace(p.data, data)
		if readyAt > p.readyAt {
			p.readyAt = readyAt
		}
		pc.touch(p)
		return p
	}
	return pc.add(k, data, readyAt)
}

// add is insert of a page k the caller has just looked up and not found.
func (pc *pageCache) add(k pageKey, data []byte, readyAt time.Duration) *page {
	p := pc.mem.New(page{key: k, data: pc.mem.Pool.Load(data), readyAt: readyAt})
	pc.link(p)
	pc.evict(p)
	return p
}

func (pc *pageCache) getOrCreate(k pageKey) *page {
	if p, ok := pc.pages[k.id()]; ok {
		pc.touch(p)
		return p
	}
	return pc.add(k, nil, 0)
}

// evict drops least recently used clean pages other than keep until the
// cache fits; with only dirty pages left it stays over its bound.
func (pc *pageCache) evict(keep *page) {
	for len(pc.pages) > pc.max {
		p := pc.lru.newer
		for p != &pc.lru && (p.dirty || p == keep) {
			p = p.newer
		}
		if p == &pc.lru {
			return
		}
		pc.unlink(p)
		pc.mem.Retire(p) // the syscall in flight may still be using it
	}
}

// reclaim frees retired pages and gives their blocks, and the replaced
// blocks, to the pool. Callers guarantee that no syscall is in flight.
func (pc *pageCache) reclaim() {
	pc.mem.Reclaim(func(p *page) *[]byte { return &p.data })
}

// release gives every retired and resident block, and the pages' chunks, back
// to the pool and zeroes every page: the pages are dead, drop forgets them.
// Without a pool nothing is recycled, and the slab keeps its chunks.
func (pc *pageCache) release() { pc.mem.Release(func(p *page) []byte { return p.data }) }

// drop empties the cache, as a remount does: release, then forget every page.
// The maps and the slab keep their storage. A cold cache refills to about the
// size it had, and regrowing the index from nothing (8192 entries per 32 MB
// read) would cost garbage on the read path.
func (pc *pageCache) drop() {
	pc.release()
	clear(pc.pages)
	clear(pc.byFile)
	pc.lru.newer, pc.lru.older = &pc.lru, &pc.lru
}

// dropFile uncaches every page of a file: its whole chain at once.
func (pc *pageCache) dropFile(ino uint64) {
	head := pc.byFile[ino]
	if head == nil {
		return
	}
	for p := head; p != nil; p = p.fnext {
		delete(pc.pages, p.key.id())
		lruRemove(p)
		pc.mem.Retire(p)
	}
	delete(pc.byFile, ino)
}

// truncate uncaches a file's pages past size and zeroes the rest of the page
// size falls inside, so a file that grows again reads zeros there, not what
// it held before. The caller has flushed the file: no page of it is dirty.
func (pc *pageCache) truncate(ino uint64, size int64) {
	for p, next := pc.byFile[ino], (*page)(nil); p != nil; p = next {
		next = p.fnext
		switch off := p.key.idx * pageSize; {
		case off >= size:
			pc.unlink(p)
			pc.mem.Retire(p)
		case off+pageSize > size:
			p.data = pc.mem.Pool.Writable(p.data)
			clear(p.data[size-off:])
		}
	}
}

// fileState tracks per-file read-ahead and validation.
type fileState struct {
	raNext       int64
	raWindow     int
	raPrefetched int64
}

// writeBehind is the client's bounded async-write pool. Dirty pages queue
// here; flushes issue unstable WRITE RPCs with a bounded in-flight window.
// When the pool overflows, the writer blocks until in-flight writes finish
// — the pseudo-synchronous degeneration the paper identifies as the cause
// of NFS's poor write performance (Section 4.5, Table 4, Figure 6b).
type writeBehind struct {
	c                *Client
	queue            []pageKey
	queued           map[uint64]bool // by key id
	inflight         []time.Duration // completion times of recent WRITE RPCs
	horizon          time.Duration
	issued           int // pages issued since the last stall/drain
	dirtySinceCommit bool

	// pseudoSync latches once the pool has overflowed: from then on the
	// write-back cache has degenerated and flushes proceed with a serial
	// window, the behaviour the paper diagnoses in Section 4.5.
	pseudoSync bool

	// flushTrigger starts background flushing once this many pages queue.
	flushTrigger int

	// held is one WRITE's run of pages (at most a v4 transfer's 8), looked
	// up once, and refs their data, handed to the server by reference; both
	// are cleared after each call, so they keep no page reachable.
	held [8]*page
	refs [8][]byte
}

func newWriteBehind(c *Client) *writeBehind {
	return &writeBehind{c: c, queued: make(map[uint64]bool), flushTrigger: 64}
}

func (wb *writeBehind) add(k pageKey) {
	// One map operation: the key is new when the map grew.
	n := len(wb.queued)
	if wb.queued[k.id()] = true; len(wb.queued) > n {
		wb.queue = append(wb.queue, k)
	}
	wb.dirtySinceCommit = true
}

// dropFile forgets a file's queued pages, filtering the queue in place.
func (wb *writeBehind) dropFile(ino uint64) {
	keep := wb.queue[:0]
	for _, k := range wb.queue {
		if k.ino == ino {
			delete(wb.queued, k.id())
			continue
		}
		keep = append(keep, k)
	}
	wb.queue = keep
}

// maybeFlush applies the background flush and pool-overflow policies,
// returning the (possibly delayed) caller time.
func (wb *writeBehind) maybeFlush(at time.Duration) (time.Duration, error) {
	if len(wb.queue) >= wb.flushTrigger {
		if err := wb.issueAll(at); err != nil {
			return at, err
		}
		if wb.pseudoSync {
			// Degenerated write-through: the writer rides the flush.
			if wb.horizon > at {
				at = wb.horizon
			}
		}
	}
	if wb.issued > wb.c.MaxPendingWrites {
		// Pool exhausted: the writer stalls until in-flight RPCs drain,
		// and the cache stays degenerate for the rest of the stream.
		wb.pseudoSync = true
		if wb.horizon > at {
			at = wb.horizon
		}
		wb.issued = 0
		wb.inflight = wb.inflight[:0]
	}
	return at, nil
}

// window returns the in-flight WRITE window: bounded normally, serial once
// the pool has degenerated.
func (wb *writeBehind) window() int {
	if wb.pseudoSync {
		return 1
	}
	return wb.c.FlushWindow
}

// issueAll sends WRITE RPCs for every queued dirty page, coalescing
// contiguous pages of a file into transfer-size requests and pipelining
// with a bounded window. The caller's clock does not advance (the RPCs are
// asynchronous); completion feeds the horizon.
func (wb *writeBehind) issueAll(at time.Duration) error {
	c := wb.c
	maxPages := transferSize(c.ver) / pageSize
	if wb.pseudoSync {
		// Degenerate mode flushes page-at-a-time (the paper observed a
		// 4.7 KB mean request size — essentially one page per RPC).
		maxPages = 1
	}
	i := 0
	for i < len(wb.queue) {
		k := wb.queue[i]
		run := 1
		for i+run < len(wb.queue) {
			nk := wb.queue[i+run]
			if nk.ino != k.ino || nk.idx != k.idx+int64(run) || run >= maxPages {
				break
			}
			run++
		}
		held := wb.held[:0]
		for j := 0; j < run; j++ {
			held = append(held, c.pages.peek(pageKey{k.ino, k.idx + int64(j)}))
		}
		// The payload is the run's pages, clamped to the file size so
		// flushing never extends the file.
		count := run * pageSize
		if size := c.cachedSize(FH{Ino: k.ino}); size > 0 {
			off := k.idx * pageSize
			if off >= size {
				// Stale pages beyond a truncation: drop them.
				wb.clean(k, held)
				i += run
				continue
			}
			count = int(min(int64(count), size-off))
		}
		// The server takes the pages by reference and copies what it keeps;
		// a page no longer cached is zeros (Load of nothing: the shared block).
		refs := wb.refs[:0]
		for j, p := range held[:(count+pageSize-1)/pageSize] {
			var data []byte
			if p != nil {
				data = p.data
			} else {
				data = c.pages.mem.Pool.Load(nil)
			}
			refs = append(refs, data[:min(pageSize, count-j*pageSize)])
		}
		start := at
		if w := wb.window(); len(wb.inflight) >= w {
			if t := wb.inflight[len(wb.inflight)-w]; t > start {
				start = t
			}
		}
		fh := FH{Ino: k.ino}
		off := k.idx * pageSize
		stable := c.ver == V2
		var st vfs.Stat
		done, err := c.asyncCall(start, ProcWrite, 0, count, 0, func(arrive time.Duration) (time.Duration, error) {
			var e error
			st, arrive, e = c.srv.Write(arrive, fh, off, refs, stable)
			return arrive, e
		})
		clear(refs)
		if err != nil {
			return err
		}
		// Track our own writes' post-op attributes so the next
		// revalidation does not mistake them for a foreign change and
		// dump the page cache.
		if a, ok := c.attrs[k.ino]; ok {
			if st.Size < a.st.Size {
				st.Size = a.st.Size // later queued pages not yet flushed
			}
			c.putAttrs(fh, st, a.fetchedAt)
		}
		if len(wb.inflight) == 64 { // keep the last 64, in the same array
			wb.inflight = wb.inflight[:copy(wb.inflight, wb.inflight[1:])]
		}
		wb.inflight = append(wb.inflight, done)
		if done > wb.horizon {
			wb.horizon = done
		}
		wb.issued += run
		wb.clean(k, held)
		i += run
	}
	wb.queue = wb.queue[:0]
	return nil
}

// clean takes the run of pages from k on, held, off the queue and marks the
// cached ones clean, then clears held.
func (wb *writeBehind) clean(k pageKey, held []*page) {
	for j, p := range held {
		delete(wb.queued, pageKey{k.ino, k.idx + int64(j)}.id())
		if p != nil {
			p.dirty = false
		}
	}
	clear(held)
}

// drain flushes everything and issues COMMIT (v3/v4), returning when all
// data is durable at the server.
func (wb *writeBehind) drain(at time.Duration) (time.Duration, error) {
	c := wb.c
	if err := wb.issueAll(at); err != nil {
		return at, err
	}
	done := at
	if wb.horizon > done {
		done = wb.horizon
	}
	wb.issued = 0
	wb.inflight = wb.inflight[:0]
	if c.ver >= V3 && wb.dirtySinceCommit {
		var err error
		done, err = c.call(done, ProcCommit, 0, 0, 0, func(arrive time.Duration) (time.Duration, error) {
			return c.srv.commit(arrive, c.rootFH)
		})
		if err != nil {
			return done, err
		}
		wb.dirtySinceCommit = false
	}
	return done, nil
}

// ---- file open/create ----

// nfsFile is an open file handle at the client.
type nfsFile struct {
	c  *Client
	fh FH
}

// Create implements vfs.FileSystem (creat(2)).
func (c *Client) Create(at time.Duration, path string, mode vfs.Mode) (vfs.File, time.Duration, error) {
	dir, name, _, done, err := c.lookupLast(at, path, anyName)
	if err != nil {
		return nil, done, err
	}
	var fh FH
	zero := int64(0)
	truncate := ext3.SetAttr{Size: &zero}
	if c.ver == V4 {
		// v4: OPEN(create) + OPEN_CONFIRM + SETATTR + attribute refreshes
		// (the Linux/UMich client's observed chattiness).
		if fh, done, err = c.open(done, dir, name, true, mode); err == nil {
			_, done, err = c.setattrCall(done, fh, truncate)
		}
		for i := 0; i < 2 && err == nil; i++ {
			done = c.refresh(done, fh)
		}
	} else {
		// creat(2) truncates: the client follows CREATE with SETATTR(size=0).
		fh, _, done, err = c.fhCall(done, ProcCreate, len(name), 0, func(arrive time.Duration) (FH, vfs.Stat, time.Duration, error) {
			return c.srv.create(arrive, dir, name, mode)
		})
		if err == nil {
			_, done, err = c.setattrCall(done, fh, truncate)
		}
	}
	if err != nil {
		return nil, done, err
	}
	c.putDentry(dir, name, fh, done)
	c.invalidateDir(dir)
	c.pages.dropFile(fh.Ino)
	return c.handle(fh), done, nil
}

// handle returns fh's open-file handle, the immutable pair (c, fh): one per
// filehandle serves every open of it until DropCaches.
func (c *Client) handle(fh FH) *nfsFile {
	f := c.handles[fh]
	if f == nil {
		f = &nfsFile{c: c, fh: fh}
		c.handles[fh] = f
	}
	return f
}

// open sends v4's OPEN of name in dir (creating it when create is set) and
// the OPEN_CONFIRM that follows; the attributes in OPEN's reply are cached
// as of the confirmation.
func (c *Client) open(at time.Duration, dir FH, name string, create bool, mode vfs.Mode) (FH, time.Duration, error) {
	fh, st, done, err := c.fhCall(at, ProcOpen, len(name), 0, func(arrive time.Duration) (FH, vfs.Stat, time.Duration, error) {
		return c.srv.open(arrive, dir, name, create, mode)
	})
	if err != nil {
		return FH{}, done, err
	}
	if done, err = c.call(done, ProcOpenConfirm, 0, 0, 0, c.srv.openConfirm); err != nil {
		return FH{}, done, err
	}
	c.putAttrs(fh, st, done)
	return fh, done, nil
}

// Open implements vfs.FileSystem.
func (c *Client) Open(at time.Duration, path string) (vfs.File, time.Duration, error) {
	fh, done, err := c.resolve(at, path, true)
	if err != nil {
		return nil, done, err
	}
	if c.attrs[fh.Ino].st.Mode.IsDir() {
		return nil, done, vfs.ErrIsDir
	}
	if c.ver == V4 {
		// Stateful open: OPEN + OPEN_CONFIRM.
		dir, name, d2, err := c.resolveParent(done, path)
		if err != nil {
			return nil, d2, err
		}
		fh, done, err = c.open(d2, dir, name, false, 0)
	} else {
		// Close-to-open consistency: open(2) revalidates attributes.
		_, done, err = c.attrCall(done, fh, ProcGetattr)
	}
	if err != nil {
		return nil, done, err
	}
	return c.handle(fh), done, nil
}

// ---- file I/O ----

// cachedSize returns the client's view of the file size.
func (c *Client) cachedSize(fh FH) int64 {
	return c.attrs[fh.Ino].st.Size
}

// revalidate refreshes attributes when the consistency window expired; on
// an mtime change the cached pages are invalidated (weak consistency).
func (c *Client) revalidate(at time.Duration, fh FH) (time.Duration, error) {
	a, known, fresh := c.freshAttrs(fh, at)
	if fresh {
		return at, nil
	}
	st, done, err := c.attrCall(at, fh, ProcGetattr)
	if err == nil && known && st.Mtime != a.st.Mtime {
		c.pages.dropFile(fh.Ino)
	}
	return done, err
}

// readRun READs pages idx to idx+run-1 of f and caches what the reply holds
// of each (nothing past the end of the file), arriving when the reply does.
// It returns held with the pages appended. The reply is the server's buffer:
// it is copied into the cache before anything else reaches the server.
func (f *nfsFile) readRun(at time.Duration, idx int64, run int, held []*page) ([]*page, time.Duration, error) {
	c := f.c
	var data []byte
	done, err := c.call(at, ProcRead, 0, 0, run*pageSize, func(arrive time.Duration) (time.Duration, error) {
		var e error
		data, _, arrive, e = c.srv.read(arrive, f.fh, idx*pageSize, run*pageSize)
		return arrive, e
	})
	if err != nil {
		return held, done, err
	}
	for j := 0; j < run; j++ {
		lo, hi := min(j*pageSize, len(data)), min((j+1)*pageSize, len(data))
		held = append(held, c.pages.insert(pageKey{f.fh.Ino, idx + int64(j)}, data[lo:hi], done))
	}
	return held, done, nil
}

// ReadAt implements vfs.File: cached pages are served locally (after the
// consistency check); misses fetch transfer-size READs; sequential access
// triggers asynchronous read-ahead.
func (f *nfsFile) ReadAt(at time.Duration, off int64, buf []byte) (int, time.Duration, error) {
	c := f.c
	if !c.mounted {
		return 0, at, vfs.ErrStale
	}
	c.pages.reclaim()
	done, err := c.revalidate(at, f.fh)
	if err != nil {
		return 0, done, err
	}
	size := c.cachedSize(f.fh)
	if off >= size {
		return 0, done, nil
	}
	if off+int64(len(buf)) > size {
		buf = buf[:size-off]
	}
	first, last, err := pageRange(f.fh.Ino, off, int64(len(buf)))
	if err != nil {
		return 0, done, err
	}
	maxPages := transferSize(c.ver) / pageSize

	// Fetch missing runs, holding every page of the request: a later insert
	// of this call may evict one, and a retired page keeps its bytes until
	// the next syscall reclaims it. The array serves requests up to 128 KB
	// and goes with the call: a longer-lived slot would keep a dropped page,
	// and through its ring links the whole dropped cache, reachable.
	var heldBuf [32]*page
	held := heldBuf[:0]
	for idx := first; idx <= last; {
		if p := c.pages.peek(pageKey{f.fh.Ino, idx}); p != nil {
			held = append(held, p)
			idx++
			continue
		}
		run := 1
		for idx+int64(run) <= last && run < maxPages &&
			c.pages.peek(pageKey{f.fh.Ino, idx + int64(run)}) == nil {
			run++
		}
		if held, done, err = f.readRun(done, idx, run, held); err != nil {
			return 0, done, err
		}
		idx += int64(run)
	}

	// Copy out, waiting for any in-flight read-ahead.
	copied := 0
	for idx := first; idx <= last; idx++ {
		p := held[idx-first]
		bs, be := int64(0), int64(pageSize)
		if idx == first {
			bs = off % pageSize
		}
		if idx == last {
			be = (off+int64(len(buf))-1)%pageSize + 1
		}
		if p.readyAt > done {
			done = p.readyAt
		}
		copied += copy(buf[copied:], p.data[bs:be])
	}
	done = c.charge(done, copied)

	// Read-ahead: sequential access only (random access disables it).
	fsx, ok := c.files[f.fh.Ino]
	if !ok {
		fsx = fileState{raWindow: 4}
	}
	defer func() { c.files[f.fh.Ino] = fsx }()
	n := last - first + 1
	if first != fsx.raNext {
		fsx.raWindow = 4
		fsx.raNext = first + n
		fsx.raPrefetched = last + 1
		return copied, done, nil
	}
	fsx.raWindow *= 2
	if fsx.raWindow > c.ReadAheadPages {
		fsx.raWindow = c.ReadAheadPages
	}
	fsx.raNext = first + n
	end := last + 1 + int64(fsx.raWindow)
	if maxFile := (size + pageSize - 1) / pageSize; end > maxFile {
		end = maxFile
	}
	start := fsx.raPrefetched
	if start < last+1 {
		start = last + 1
	}
	for idx := start; idx < end; {
		if c.pages.peek(pageKey{f.fh.Ino, idx}) != nil {
			idx++
			continue
		}
		run := 1
		for idx+int64(run) < end && run < maxPages &&
			c.pages.peek(pageKey{f.fh.Ino, idx + int64(run)}) == nil {
			run++
		}
		if _, _, err := f.readRun(done, idx, run, held[:0]); err != nil {
			break
		}
		idx += int64(run)
	}
	fsx.raPrefetched = end
	return copied, done, nil
}

// WriteAt implements vfs.File. v2 writes through synchronously; v3/v4
// write into the page cache and the bounded async pool.
func (f *nfsFile) WriteAt(at time.Duration, off int64, data []byte) (int, time.Duration, error) {
	c := f.c
	if !c.mounted {
		return 0, at, vfs.ErrStale
	}
	c.pages.reclaim()
	if c.ver == V2 {
		return f.writeSync(at, off, data)
	}
	first, last, err := pageRange(f.fh.Ino, off, int64(len(data)))
	if err != nil {
		return 0, at, err
	}
	done := c.charge(at, len(data))
	size := c.cachedSize(f.fh)
	written := 0
	for idx := first; idx <= last; idx++ {
		bs, be := int64(0), int64(pageSize)
		if idx == first {
			bs = off % pageSize
		}
		if idx == last {
			be = (off+int64(len(data))-1)%pageSize + 1
		}
		k := pageKey{f.fh.Ino, idx}
		p := c.pages.peek(k)
		if bs == 0 && be == pageSize {
			// A whole page: what it held does not matter.
			if src := data[written : written+pageSize]; p == nil {
				p = c.pages.add(k, src, 0)
			} else {
				p.data = c.pages.mem.Replace(p.data, src)
			}
			written += pageSize
		} else {
			if p == nil && idx*pageSize < size {
				// Partial write of an uncached existing page: read it first.
				var one [1]*page
				held, d2, err := f.readRun(done, idx, 1, one[:0])
				if err != nil {
					return written, d2, err
				}
				done, p = d2, held[0]
			} else if p == nil {
				p = c.pages.getOrCreate(k)
			}
			p.data = c.pages.mem.Pool.Writable(p.data)
			written += copy(p.data[bs:be], data[written:])
		}
		p.dirty = true
		c.wb.add(k)
	}
	// Update the local size view.
	if a, ok := c.attrs[f.fh.Ino]; ok {
		if ns := off + int64(len(data)); ns > a.st.Size {
			a.st.Size = ns
			c.attrs[f.fh.Ino] = a
		}
	}
	done = c.wbFlush(done)
	return written, done, nil
}

func (c *Client) wbFlush(at time.Duration) time.Duration {
	done, err := c.wb.maybeFlush(at)
	if err != nil {
		return at
	}
	return done
}

// writeSync is the v2 path: every chunk is a stable WRITE (server syncs
// data and meta-data before replying). A negative offset is refused.
func (f *nfsFile) writeSync(at time.Duration, off int64, data []byte) (int, time.Duration, error) {
	if off < 0 {
		return 0, at, vfs.ErrInvalid
	}
	c := f.c
	done := at
	chunk := transferSize(V2)
	written := 0
	for written < len(data) {
		n := len(data) - written
		if n > chunk {
			n = chunk
		}
		part := data[written : written+n]
		o := off + int64(written)
		var cut [3][]byte // a chunk of two pages touches at most three
		pages := blockdev.Cut(cut[:0], o, part)
		_, _, d2, err := c.fhCall(done, ProcWrite, 0, n, func(arrive time.Duration) (FH, vfs.Stat, time.Duration, error) {
			st, done, err := c.srv.Write(arrive, f.fh, o, pages, true)
			return f.fh, st, done, err
		})
		if err != nil {
			return written, d2, err
		}
		done = d2
		// Keep the page cache coherent with what we wrote.
		for p := o / pageSize; p <= (o+int64(n)-1)/pageSize; p++ {
			if pg := c.pages.peek(pageKey{f.fh.Ino, p}); pg != nil {
				bs := o - p*pageSize
				if bs < 0 {
					bs = 0
				}
				srcOff := p*pageSize + bs - o
				end := int64(n) - srcOff
				if end > pageSize-bs {
					end = pageSize - bs
				}
				if end > 0 {
					pg.data = c.pages.mem.Pool.Writable(pg.data)
					copy(pg.data[bs:bs+end], part[srcOff:srcOff+end])
				}
			}
		}
		written += n
	}
	return written, c.charge(done, len(data)), nil
}

// Fsync implements vfs.File.
func (f *nfsFile) Fsync(at time.Duration) (time.Duration, error) {
	return f.c.wb.drain(at)
}

// flushFile drains the write-behind pool if it holds a page of the file (v2
// writes through and never does).
func (c *Client) flushFile(at time.Duration, ino uint64) (time.Duration, error) {
	for id := range c.wb.queued {
		if id>>32 == ino {
			return c.wb.drain(at)
		}
	}
	return at, nil
}

// Close implements vfs.File: close-to-open consistency flushes dirty data
// (v3/v4); v4 additionally sends CLOSE to release open state.
func (f *nfsFile) Close(at time.Duration) (time.Duration, error) {
	c := f.c
	done, err := c.flushFile(at, f.fh.Ino)
	if err != nil {
		return done, err
	}
	if c.ver == V4 {
		if done, err = c.call(done, ProcClose, 0, 0, 0, c.srv.close); err != nil {
			return done, err
		}
	}
	delete(c.files, f.fh.Ino)
	return done, nil
}
