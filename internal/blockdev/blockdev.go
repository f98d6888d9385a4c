// Package blockdev defines the block device abstraction the filesystem and
// the SCSI target sit on, plus a sparse in-memory implementation backed by
// the simdisk RAID-5 timing model.
//
// Devices carry real bytes: the ext3 implementation in this repository lays
// out genuine superblocks, bitmaps, inode tables and directory blocks, so a
// device's content can be unmounted, "crashed", remounted and recovered.
//
// What those bytes cost the host follows their content, in every owner of
// blocks (Store, ext3 buffer cache, NFS page cache): a block that is one byte
// repeated (zeros, or the fill byte of a synthetic payload) is a reference to
// the shared read-only block of that byte, which costs no memory and is never
// written, and only a block of mixed bytes is the owner's own (private). A
// cached shared block becomes private the first time a partial write lands in
// it (Pool.Writable); a whole-block write makes it whatever the new content
// is (Pool.replace). Private blocks can come from and return to a Pool, the
// explicit free list that the block owners of an assembly and of the
// short-lived assemblies after it share. The one rule for every owner: it
// holds whole pool blocks or shared ones only, a private block it drops is
// retired, and retired blocks go back to the pool between operations, when
// only dirty or pinned blocks, which are never dropped, can still be referred
// to (see Store and Pool).
//
// A block moves down the write path by reference, not by copy: from the NFS
// client's page cache to the server's buffer cache, and from a buffer cache
// through the iSCSI initiator and target (WriteRun) to the Store. A callee
// handed a block only reads it during the call; it keeps a shared block as
// itself, known by its address without comparing a byte again, and copies a
// private one. So a block is tested for one byte repeated once, where it
// first enters a cache.
//
// Block numbers are dense integers below a device's NumBlocks, so the owners
// that look blocks up by number (Store, the ext3 buffer cache) index them
// with a Table, a two-level radix table walked in ascending order, not a
// map; a set of block numbers (dirty data) is a Table too. A Table's leaves
// are the third thing a Pool recycles, after the Stores' blocks and the
// caches' blocks.
package blockdev

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"repro/internal/metrics"
	"repro/internal/simdisk"
)

// Device is a virtual-time block device. All I/O is in whole blocks; start
// is the virtual time the request is issued and done the completion time.
type Device interface {
	// BlockSize returns the device block size in bytes.
	BlockSize() int
	// NumBlocks returns the device capacity in blocks.
	NumBlocks() int64
	// ReadBlocks reads len(buf)/BlockSize blocks starting at lba into buf.
	ReadBlocks(start time.Duration, lba int64, buf []byte) (done time.Duration, err error)
	// WriteRun writes blocks, each one whole block, at lba onwards as one
	// request. The blocks are handed over by reference: the device only
	// reads them during the call, keeps a shared block as itself and copies
	// any other. A run Cut would not make of its bytes at offset 0 (see
	// CutSize), or whose bytes are no whole number of blocks, is refused
	// before any block is written.
	WriteRun(start time.Duration, lba int64, blocks [][]byte) (done time.Duration, err error)
}

// Store is a sparse in-memory block image: the "platters". It carries no
// timing; wrap it in a Local device for timed access.
//
// Memory follows content, not copies. A block is in one of three states:
//
//   - absent: it reads as zeros (never written, or last written with zeros);
//   - constant: its last write was one non-zero byte repeated, and the table
//     holds a reference to the shared read-only block of that byte;
//   - private: its last write mixed bytes, and the table holds the store's
//     own copy.
//
// So a synthetic payload (one fill byte per chunk) costs the host no bytes
// however much of it is written, while ReadAt returns exactly what was
// written through crash, remount and recovery. A private block always holds
// mixed bytes: the state depends only on the last write to that lba.
//
// Ownership: the store never hands out a block (ReadAt copies), so it may
// return a private block to its Pool the moment a constant write replaces it
// and, wholesale, in Release, which also gives back the table's leaves.
// Shared blocks are never written, and Put refuses them.
type Store struct {
	blockSize int
	numBlocks int64
	blocks    Table[[]byte]
	released  bool
	pool      *Pool
}

// shared holds, for every fill byte, one block of that byte repeated: what a
// constant block's table entry, and a cache block of one byte repeated, refers
// to. Filled by init, never written again. It is static data, not a heap
// object: a megabyte the collector would count as live heap would raise every
// cycle's goal by twice that, and the heap's peak with it.
var shared [256][BlockSize]byte

func init() {
	for v := range shared {
		for i := range shared[v] {
			shared[v][i] = byte(v)
		}
	}
}

// NewStore creates a sparse image of numBlocks blocks of blockSize bytes.
func NewStore(numBlocks int64, blockSize int) *Store {
	return &Store{blockSize: blockSize, numBlocks: numBlocks}
}

// SetPool makes the store take its private blocks and its table's leaves
// from p and return them to it (nil: allocate, and leave them to the
// collector). A store whose blocks are not BlockSize bytes ignores the pool.
func (s *Store) SetPool(p *Pool) {
	if s.blockSize == BlockSize {
		s.pool = p
		s.blocks.SetPool(p)
	}
}

// check rejects a request outside the store, on a released store, or whose
// buffer is not exactly one block: the representation depends on the whole
// block's content, so a short or long buffer has no meaning.
func (s *Store) check(op string, lba int64, n int) error {
	if s.released {
		return fmt.Errorf("blockdev: %s on a released store", op)
	}
	if lba < 0 || lba >= s.numBlocks {
		return fmt.Errorf("blockdev: %s beyond store: lba=%d cap=%d", op, lba, s.numBlocks)
	}
	if n != s.blockSize {
		return fmt.Errorf("blockdev: %s of %d bytes, block size is %d", op, n, s.blockSize)
	}
	return nil
}

// ReadAt copies block lba into buf (len buf == blockSize).
func (s *Store) ReadAt(lba int64, buf []byte) error {
	if err := s.check("read", lba, len(buf)); err != nil {
		return err
	}
	if b, ok := s.blocks.Get(lba); ok {
		copy(buf, b)
	} else {
		clear(buf)
	}
	return nil
}

// WriteAt stores data (len == blockSize) at block lba. One byte repeated
// stores no bytes: zeros make the block absent, any other byte makes it a
// reference to that byte's shared block, and a private block it replaces
// goes back to the pool. Mixed data is copied into a private block. data is
// only read: a shared block is known by its address and not compared again,
// and any other block is never kept.
func (s *Store) WriteAt(lba int64, data []byte) error {
	if err := s.check("write", lba, len(data)); err != nil {
		return err
	}
	old, present := s.blocks.Get(lba)
	private := present && !isShared(old)
	if isShared(data) || s.blockSize <= BlockSize && uniform(data) {
		s.pool.Put(old) // refuses a shared block, and nil
		if v := data[0]; v != 0 {
			s.blocks.Set(lba, shared[v][:s.blockSize:s.blockSize])
		} else if present {
			s.blocks.Delete(lba)
		}
		return nil
	}
	if !private {
		if s.pool != nil {
			old = s.pool.Get(false)
		} else {
			old = make([]byte, s.blockSize)
		}
		s.blocks.Set(lba, old)
	}
	copy(old, data)
	return nil
}

// uniform reports whether b (at most BlockSize bytes) is one byte repeated:
// it equals the shared block of its first byte, which bytes.Equal checks at
// memory-compare speed on two aligned blocks and leaves at the first
// difference, so mixed data pays for a few bytes.
func uniform(b []byte) bool {
	if compared != nil {
		compared()
	}
	return len(b) > 0 && len(b) <= BlockSize && bytes.Equal(b, shared[b[0]][:len(b)])
}

// compared, when set, is called by every uniformity test: tests count what a
// block costs on its way down.
var compared func()

// isShared reports whether b (a block a store or cache holds, never empty)
// refers to a shared block rather than to memory its owner owns: the
// uniformity test, without a compare, of a block some owner already tested.
func isShared(b []byte) bool { return &b[0] == &shared[b[0]][0] }

// SharedIntact reports an error when a shared block holds a byte other than
// its own: something wrote through a reference to it (for tests). It counts
// the bytes rather than asking uniform, which compares a block with them.
func (*Pool) SharedIntact() error {
	for v := range shared {
		if n := bytes.Count(shared[v][:], []byte{byte(v)}); n != BlockSize {
			return fmt.Errorf("blockdev: shared block %#x holds %d other bytes", v, BlockSize-n)
		}
	}
	return nil
}

// Populated reports how many blocks are constant or private, that is, how
// many do not currently read as all zeros (for tests).
func (s *Store) Populated() int { return s.blocks.Len() }

// Release returns every private block and the table's leaves to the pool and
// leaves the store unusable: reads and writes fail from then on. It is the
// store's share of tearing a whole assembly down (testbed's Cluster.Close);
// skipping it costs garbage, nothing else.
func (s *Store) Release() {
	if s.pool != nil {
		for lba := s.blocks.Next(0); lba >= 0; lba = s.blocks.Next(lba + 1) {
			b, _ := s.blocks.Get(lba)
			s.pool.Put(b)
		}
	}
	s.blocks.Release()
	s.released = true
}

// Local is a directly-attached device: a Store for content plus a RAID-5
// array for timing. This is the device the NFS server's ext3 uses, and the
// device behind the iSCSI target.
type Local struct {
	store *Store
	raid  *simdisk.RAID5
	// offset maps this device's block 0 to a physical array block, so
	// several Locals (LUNs) can partition one shared array.
	offset int64
	// FailReads/FailWrites inject I/O errors when set (failure testing).
	FailReads, FailWrites bool
	// refs holds WriteBlocks' data cut into blocks during the call.
	refs [][]byte
}

// newLocal wraps store with raid timing.
func newLocal(store *Store, raid *simdisk.RAID5) *Local {
	return &Local{store: store, raid: raid}
}

// newLocalAt wraps store with raid timing, mapping the device's block 0 to
// physical block offset on the array: one LUN of a shared array.
func newLocalAt(store *Store, raid *simdisk.RAID5, offset int64) *Local {
	return &Local{store: store, raid: raid, offset: offset}
}

// NewTestbedArray builds the paper's storage subsystem: a 4+p RAID-5 array
// of 10K RPM Ultra-160 drives, exposed as a Local device of the given
// capacity in 4 KB blocks.
func NewTestbedArray(numBlocks int64) *Local {
	p := simdisk.Ultra160()
	p.Blocks = numBlocks // per-member capacity; logical capacity is 4x
	return newLocal(NewStore(numBlocks, 4096), simdisk.NewRAID5(p))
}

// NewClusterArraySized builds one shared 4+p RAID-5 array partitioned into
// n LUNs of numBlocks 4 KB blocks each: the storage side of a multi-client
// iSCSI testbed, where every client owns a volume but all volumes contend
// for the same spindles. The member capacity is sized for capacityClients
// volumes while only n LUNs are materialized: the hybrid
// fleet case, where a handful of mechanistic clients must see the same
// seek distances a full mechanistic fleet of capacityClients would. The
// Store behind each LUN is sparse, so the extra address space costs
// nothing until written.
func NewClusterArraySized(n int, numBlocks int64, capacityClients int) []*Local {
	if n < 1 {
		n = 1
	}
	if capacityClients < n {
		capacityClients = n
	}
	p := simdisk.Ultra160()
	// Size members exactly like NewTestbedArray would for the same
	// aggregate capacity (capacityClients*numBlocks per member, 4x logical
	// slack), so the seek model — which scales with member capacity — is
	// identical whether the array backs one NFS export or n iSCSI LUNs.
	// Round up to the array's 8-block stripe unit so the top of the address
	// space cannot map past a member's last block.
	const stripeUnit = 8
	p.Blocks = (int64(capacityClients)*numBlocks + stripeUnit - 1) / stripeUnit * stripeUnit
	raid := simdisk.NewRAID5(p)
	luns := make([]*Local, n)
	for i := range luns {
		luns[i] = newLocalAt(NewStore(numBlocks, 4096), raid, int64(i)*numBlocks)
	}
	return luns
}

// BlockSize returns the block size in bytes.
func (l *Local) BlockSize() int { return l.store.blockSize }

// NumBlocks returns capacity in blocks.
func (l *Local) NumBlocks() int64 { return l.store.numBlocks }

// Store exposes the backing store (the iSCSI target reuses it).
func (l *Local) Store() *Store { return l.store }

// RAID exposes the timing array.
func (l *Local) RAID() *simdisk.RAID5 { return l.raid }

// Stats returns array-level I/O counters.
func (l *Local) Stats() metrics.DiskStats { return l.raid.Stats() }

// Counters exports the backing array's counters for the metrics event
// stream (metrics.SubsysDisk; see docs/METRICS.md). LUNs sharing one
// array report the same (shared) counters.
func (l *Local) Counters() map[string]int64 { return l.raid.Counters() }

// ReadBlocks implements Device.
func (l *Local) ReadBlocks(start time.Duration, lba int64, buf []byte) (time.Duration, error) {
	if l.FailReads {
		return start, fmt.Errorf("blockdev: injected read failure at lba=%d", lba)
	}
	bs := l.store.blockSize
	if len(buf)%bs != 0 {
		return start, fmt.Errorf("blockdev: read buffer not block-multiple: %d", len(buf))
	}
	n := len(buf) / bs
	if err := l.checkRange("read", lba, n); err != nil {
		return start, err
	}
	for i := 0; i < n; i++ {
		if err := l.store.ReadAt(lba+int64(i), buf[i*bs:(i+1)*bs]); err != nil {
			return start, err
		}
	}
	return l.raid.Read(start, l.offset+lba, n)
}

// WriteBlocks writes data, whole blocks, at lba: WriteRun of data cut into
// blocks.
func (l *Local) WriteBlocks(start time.Duration, lba int64, data []byte) (time.Duration, error) {
	l.refs = Cut(l.refs[:0], 0, data)
	defer clear(l.refs)
	return l.WriteRun(start, lba, l.refs)
}

// WriteRun implements Device: one request to the array for the whole run.
func (l *Local) WriteRun(start time.Duration, lba int64, blocks [][]byte) (time.Duration, error) {
	if err := l.writable(lba, blocks); err != nil {
		return start, err
	}
	for i, b := range blocks {
		if err := l.store.WriteAt(lba+int64(i), b); err != nil {
			return start, err
		}
	}
	return l.raid.Write(start, l.offset+lba, len(blocks))
}

// writable runs the checks every write makes before a block is touched, in
// their order: the injected failure, a run that is no cut of its bytes, bytes
// that are no whole number of blocks, then a run past the device.
func (l *Local) writable(lba int64, blocks [][]byte) error {
	if l.FailWrites {
		return fmt.Errorf("blockdev: injected write failure at lba=%d", lba)
	}
	size, ok := CutSize(0, blocks)
	if !ok {
		return fmt.Errorf("blockdev: write run of %d blocks is not of whole blocks", len(blocks))
	}
	if size%l.store.blockSize != 0 {
		return fmt.Errorf("blockdev: write buffer not block-multiple: %d", size)
	}
	return l.checkRange("write", lba, len(blocks))
}

// Cut appends data, bound for byte offset off (not negative) of a device or
// a file, to dst cut at block boundaries: the first piece runs from off to
// the end of its block, every later one from the start of its block, and
// all but the last to the end. The pieces refer to data; nothing is copied.
func Cut(dst [][]byte, off int64, data []byte) [][]byte {
	dst = slices.Grow(dst, (int(off%BlockSize)+len(data)+BlockSize-1)/BlockSize)
	for len(data) > 0 {
		n := min(len(data), BlockSize-int(off%BlockSize))
		dst = append(dst, data[:n:n])
		data, off = data[n:], off+int64(n)
	}
	return dst
}

// CutSize returns how many bytes blocks hold, and whether they are what Cut
// makes of some data at off: off is not negative, no piece is empty or
// reaches past its block, and every piece but the last runs to the end of
// its block.
func CutSize(off int64, blocks [][]byte) (int, bool) {
	if off < 0 {
		return 0, false
	}
	room, n := BlockSize-int(off%BlockSize), 0
	for i, b := range blocks {
		if len(b) == 0 || len(b) > room || i < len(blocks)-1 && len(b) != room {
			return 0, false
		}
		n, room = n+len(b), BlockSize
	}
	return n, true
}

// checkRange rejects a request that is not wholly inside the device before
// any block is touched, so a write crossing the end stores no prefix.
func (l *Local) checkRange(op string, lba int64, n int) error {
	if lba < 0 || n < 0 || lba+int64(n) > l.store.numBlocks {
		return fmt.Errorf("blockdev: %s beyond device: lba=%d n=%d cap=%d", op, lba, n, l.store.numBlocks)
	}
	return nil
}

// Flush is the write barrier an iSCSI target runs for SYNCHRONIZE CACHE;
// the local array's write-back cache drains by
// the time the last member completes, which Acquire ordering guarantees,
// so this is a timing no-op.
func (l *Local) Flush(start time.Duration) (time.Duration, error) { return start, nil }
