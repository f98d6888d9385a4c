package ext3

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/blockdev"
)

// Journal block format (JBD-inspired):
//
//	descriptor: magic u32 | type=1 u32 | seq u64 | count u32 | count x lba u64
//	commit:     magic u32 | type=2 u32 | seq u64
//
// A committed transaction is descriptor + count frozen block images +
// commit record, written sequentially into the journal area. The commit
// record is issued as a separate device write after the body (as JBD does),
// which is why a single warm meta-data operation costs exactly two wire
// transactions on an iSCSI volume — the effect behind Table 3.
const (
	jMagic      uint32 = 0xC03B3998
	jDescriptor uint32 = 1
	jCommitRec  uint32 = 2

	// maxDescEntries bounds homes per descriptor block.
	maxDescEntries = (BlockSize - 20) / 8
)

// jtxn is a committed-but-not-checkpointed transaction with frozen images.
type jtxn struct {
	seq    uint64
	homes  []int64
	images [][]byte
}

// journal manages the running transaction and the checkpoint list.
type journal struct {
	fs    *FS
	start int64 // first journal block on the device
	size  int64 // journal length in blocks
	head  int64 // next free offset within the journal
	seq   uint64

	// running is the running transaction's buffers in the order they
	// joined it; a member has its running flag set until commit.
	running []*buffer

	unCheckpointed []*jtxn
	lastCommit     time.Duration

	// commits/checkpoints counters (observability).
	Commits, Checkpoints int64

	// failAfterBody injects a crash between the journal body write and
	// the commit record (recovery must then discard the transaction).
	failAfterBody bool
}

func newJournal(fs *FS, start, size int64) *journal {
	return &journal{fs: fs, start: start, size: size}
}

// add places a dirty meta-data buffer into the running transaction.
func (j *journal) add(b *buffer) {
	if !b.running {
		b.running = true
		j.running = append(j.running, b)
	}
}

// dropRunning takes the first n buffers out of the running transaction,
// keeping the rest at the front of the same array.
func (j *journal) dropRunning(n int) {
	left := copy(j.running, j.running[n:])
	clear(j.running[left:])
	j.running = j.running[:left]
}

// errCrashed is returned by commit when a crash is injected mid-commit.
var errCrashed = fmt.Errorf("ext3: crashed during journal commit")

// commit flushes ordered data, then writes the running transaction to the
// journal. It returns the time stable storage is reached.
func (j *journal) commit(at time.Duration) (time.Duration, error) {
	done := at
	var err error

	// Ordered data mode: file data reaches disk before the commit record,
	// so committed meta-data never references unwritten data.
	done, err = j.fs.flushData(done)
	if err != nil {
		return done, err
	}

	for len(j.running) > 0 {
		chunk := len(j.running)
		if chunk > maxDescEntries {
			chunk = maxDescEntries
		}
		if j.head+int64(chunk)+2 > j.size {
			// Not enough contiguous journal space: checkpoint everything
			// and restart from the beginning of the journal area.
			done, err = j.checkpointAll(done)
			if err != nil {
				return done, err
			}
		}
		bufs := j.running[:chunk]
		seq := j.seq + 1

		// Build descriptor + frozen images as one contiguous write. The
		// images must outlive the buffers' later mutations until they are
		// checkpointed, so the body is the transaction's own allocation and
		// each image is copied once, into its place in the body.
		body := make([]byte, (1+chunk)*BlockSize)
		binary.BigEndian.PutUint32(body[0:], jMagic)
		binary.BigEndian.PutUint32(body[4:], jDescriptor)
		binary.BigEndian.PutUint64(body[8:], seq)
		binary.BigEndian.PutUint32(body[16:], uint32(chunk))
		txn := &jtxn{seq: seq, homes: make([]int64, chunk), images: make([][]byte, chunk)}
		for i, b := range bufs {
			binary.BigEndian.PutUint64(body[20+8*i:], uint64(b.lba))
			img := body[(1+i)*BlockSize : (2+i)*BlockSize : (2+i)*BlockSize]
			copy(img, b.data)
			txn.homes[i] = b.lba
			txn.images[i] = img
		}
		done, err = writeCut(j.fs.dev, done, j.start+j.head, body, &j.fs.refs)
		if err != nil {
			return done, err
		}
		if j.failAfterBody {
			// Injected crash: body is on disk, commit record is not.
			return done, errCrashed
		}
		// Commit record: separate write, after the body (write barrier).
		// The descriptor block is on disk, so its memory carries the record.
		cb := body[:BlockSize]
		clear(cb)
		binary.BigEndian.PutUint32(cb[0:], jMagic)
		binary.BigEndian.PutUint32(cb[4:], jCommitRec)
		binary.BigEndian.PutUint64(cb[8:], seq)
		done, err = writeCut(j.fs.dev, done, j.start+j.head+int64(chunk)+1, cb, &j.fs.refs)
		if err != nil {
			return done, err
		}

		// Bookkeeping: buffers are clean (their images are durable) but
		// pinned until checkpointed home.
		for _, b := range bufs {
			j.fs.bc.pinCommitted(b)
			b.running = false
		}
		j.dropRunning(chunk)
		j.head += int64(chunk) + 2
		j.seq = seq
		j.unCheckpointed = append(j.unCheckpointed, txn)
		j.Commits++
	}
	return done, nil
}

// checkpointAll writes every committed transaction's frozen images home (in
// sequence order, so later images win), persists the superblock checkpoint
// sequence, and resets the journal head.
func (j *journal) checkpointAll(at time.Duration) (time.Duration, error) {
	done := at
	var err error
	if len(j.unCheckpointed) > 0 {
		// Later transactions override earlier ones per home block, and the
		// table walks the homes in ascending order.
		var final blockdev.Table[[]byte]
		final.SetPool(j.fs.opts.Pool)
		for _, t := range j.unCheckpointed {
			for i, h := range t.homes {
				final.Set(h, t.images[i])
			}
		}
		done, err = j.fs.writeRuns(at, final.Next, func(lba int64) []byte {
			img, _ := final.Get(lba)
			return img
		}, nil)
		final.Release()
		if err != nil {
			return done, err
		}
		// Unpin checkpointed buffers.
		for _, t := range j.unCheckpointed {
			for _, h := range t.homes {
				j.fs.bc.unpin(h)
			}
		}
		j.unCheckpointed = nil
		j.Checkpoints++
	}
	j.fs.sb.LastCheckpointSeq = j.seq
	done, err = j.fs.writeSuperblock(done)
	if err != nil {
		return done, err
	}
	j.head = 0
	return done, nil
}

// recover scans the journal area and replays committed transactions with
// sequence numbers beyond the last checkpoint. Returns the number of
// transactions replayed.
func recoverJournal(at time.Duration, fs *FS) (replayed int, done time.Duration, err error) {
	done = at
	expected := fs.sb.LastCheckpointSeq + 1
	off := int64(0)
	start := int64(fs.sb.JournalStart)
	size := int64(fs.sb.JournalBlocks)
	blk := fs.runBuf(1) // the descriptor, then (its homes copied out) the commit record
	for off+2 <= size {
		done, err = fs.dev.ReadBlocks(done, start+off, blk)
		if err != nil {
			return replayed, done, err
		}
		if binary.BigEndian.Uint32(blk[0:]) != jMagic ||
			binary.BigEndian.Uint32(blk[4:]) != jDescriptor ||
			binary.BigEndian.Uint64(blk[8:]) != expected {
			break
		}
		count := int64(binary.BigEndian.Uint32(blk[16:]))
		if count <= 0 || count > maxDescEntries || off+count+2 > size {
			break
		}
		homes := make([]int64, count)
		for i := int64(0); i < count; i++ {
			homes[i] = int64(binary.BigEndian.Uint64(blk[20+8*i:]))
		}
		// Validate the commit record before replaying.
		done, err = fs.dev.ReadBlocks(done, start+off+count+1, blk)
		if err != nil {
			return replayed, done, err
		}
		if binary.BigEndian.Uint32(blk[0:]) != jMagic ||
			binary.BigEndian.Uint32(blk[4:]) != jCommitRec ||
			binary.BigEndian.Uint64(blk[8:]) != expected {
			break // crashed mid-commit: discard this and later txns
		}
		// Replay: copy images home.
		images := make([]byte, count*BlockSize)
		done, err = fs.dev.ReadBlocks(done, start+off+1, images)
		if err != nil {
			return replayed, done, err
		}
		for i := int64(0); i < count; i++ {
			done, err = writeCut(fs.dev, done, homes[i], images[i*BlockSize:(i+1)*BlockSize], &fs.refs)
			if err != nil {
				return replayed, done, err
			}
		}
		replayed++
		expected++
		off += count + 2
	}
	fs.sb.LastCheckpointSeq = expected - 1
	return replayed, done, nil
}
