// Package ext3 implements a block-accurate journaling filesystem modeled
// on Linux ext3, the filesystem the paper uses on both the NFS server and
// the iSCSI client (Section 3.1). It provides:
//
//   - a real on-disk layout: superblock, block groups with block/inode
//     bitmaps and inode tables, ext2-style packed directory entries, and
//     direct/indirect/double-indirect file block maps;
//   - a JBD-style journal with a 5-second commit interval and ordered
//     data mode: dirty file data is flushed before the journal commit
//     record, meta-data updates are aggregated per commit — the exact
//     mechanism behind the paper's headline "update aggregation" result;
//   - a buffer cache with LRU eviction, read-ahead and write coalescing
//     (contiguous dirty blocks merge into large device writes, producing
//     the ~128 KB mean request size the paper observed in Table 4);
//   - crash semantics: a simulated crash discards volatile state, and
//     mount-time recovery replays committed transactions from the journal.
//
// All operations run in virtual time against a blockdev.Device, which is
// either local (NFS server side) or an iSCSI initiator (client side).
//
// The namespace is one engine with two ways in. inodeops.go holds every
// operation on the directory tree, addressed by inode and (directory, name)
// as NFS addresses them, and owns the validation of what it is handed;
// nfs.Server calls it directly. namei.go resolves paths. ops.go is the
// vfs.FileSystem the iSCSI client mounts: a path walk, then the same call.
package ext3

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/tracing"
)

// Fundamental layout constants.
const (
	BlockSize      = blockdev.BlockSize
	InodeSize      = 128
	InodesPerBlock = BlockSize / InodeSize
	DirectBlocks   = 12
	PtrsPerBlock   = BlockSize / 4

	// RootIno is the root directory's inode number (as in ext2).
	RootIno  Ino = 2
	firstIno Ino = 3 // first allocatable inode

	sbMagic      uint64 = 0x4558543353494D31 // "EXT3SIM1"
	sbStateClean uint32 = 1
	sbStateDirty uint32 = 2
)

// Ino is an inode number; 0 is invalid.
type Ino uint32

// superblock is block 0.
type superblock struct {
	Magic             uint64
	BlocksCount       uint64
	InodesCount       uint32
	BlocksPerGroup    uint32
	InodesPerGroup    uint32
	GroupCount        uint32
	JournalStart      uint64
	JournalBlocks     uint64
	CommitIntervalNs  int64
	State             uint32
	LastCheckpointSeq uint64
	FreeBlocks        uint64
	FreeInodes        uint64
}

// encode fills the block b with the superblock's image and returns it.
func (sb *superblock) encode(b []byte) []byte {
	clear(b)
	binary.BigEndian.PutUint64(b[0:], sb.Magic)
	binary.BigEndian.PutUint64(b[8:], sb.BlocksCount)
	binary.BigEndian.PutUint32(b[16:], sb.InodesCount)
	binary.BigEndian.PutUint32(b[20:], sb.BlocksPerGroup)
	binary.BigEndian.PutUint32(b[24:], sb.InodesPerGroup)
	binary.BigEndian.PutUint32(b[28:], sb.GroupCount)
	binary.BigEndian.PutUint64(b[32:], sb.JournalStart)
	binary.BigEndian.PutUint64(b[40:], sb.JournalBlocks)
	binary.BigEndian.PutUint64(b[48:], uint64(sb.CommitIntervalNs))
	binary.BigEndian.PutUint32(b[56:], sb.State)
	binary.BigEndian.PutUint64(b[60:], sb.LastCheckpointSeq)
	binary.BigEndian.PutUint64(b[68:], sb.FreeBlocks)
	binary.BigEndian.PutUint64(b[76:], sb.FreeInodes)
	return b
}

func decodeSuperblock(b []byte) (*superblock, error) {
	if len(b) < BlockSize {
		return nil, fmt.Errorf("ext3: short superblock: %d bytes", len(b))
	}
	sb := &superblock{
		Magic:             binary.BigEndian.Uint64(b[0:]),
		BlocksCount:       binary.BigEndian.Uint64(b[8:]),
		InodesCount:       binary.BigEndian.Uint32(b[16:]),
		BlocksPerGroup:    binary.BigEndian.Uint32(b[20:]),
		InodesPerGroup:    binary.BigEndian.Uint32(b[24:]),
		GroupCount:        binary.BigEndian.Uint32(b[28:]),
		JournalStart:      binary.BigEndian.Uint64(b[32:]),
		JournalBlocks:     binary.BigEndian.Uint64(b[40:]),
		CommitIntervalNs:  int64(binary.BigEndian.Uint64(b[48:])),
		State:             binary.BigEndian.Uint32(b[56:]),
		LastCheckpointSeq: binary.BigEndian.Uint64(b[60:]),
		FreeBlocks:        binary.BigEndian.Uint64(b[68:]),
		FreeInodes:        binary.BigEndian.Uint64(b[76:]),
	}
	if sb.Magic != sbMagic {
		return nil, fmt.Errorf("ext3: bad superblock magic %#x", sb.Magic)
	}
	return sb, nil
}

// checkGeometry rejects a superblock the code cannot index: a group's block and
// inode bitmaps are one block each, the group descriptor table is one block,
// and the journal and every group's bitmaps lie inside the file system, which
// lies inside the device. Mkfs runs it on what its options produce and Mount on
// what it read; every division by and index from these fields relies on it.
func (sb *superblock) checkGeometry(devBlocks int64) error {
	const maxBits = 8 * BlockSize
	bpg, ipg, groups := uint64(sb.BlocksPerGroup), sb.InodesPerGroup, uint64(sb.GroupCount)
	fg := sb.JournalStart + sb.JournalBlocks
	if bpg == 0 || bpg > maxBits || ipg == 0 || ipg > maxBits || ipg%InodesPerBlock != 0 ||
		groups == 0 || groups > BlockSize/gdtEntrySize || sb.InodesCount != sb.GroupCount*ipg ||
		sb.BlocksCount > uint64(devBlocks) || sb.JournalStart != jStart || sb.JournalBlocks > sb.BlocksCount ||
		fg+(groups-1)*bpg+2 > sb.BlocksCount || fg+groups*bpg < sb.BlocksCount {
		return fmt.Errorf("ext3: bad geometry: %d groups of %d blocks and %d inodes (%d inodes in all) behind %d journal blocks at %d do not tile %d blocks on a device of %d",
			groups, bpg, ipg, sb.InodesCount, sb.JournalBlocks, sb.JournalStart, sb.BlocksCount, devBlocks)
	}
	return nil
}

// inode is the in-memory (and, encoded, on-disk) inode.
type inode struct {
	Mode   uint16 // type + permissions (vfs.Mode layout)
	Links  uint16
	UID    uint32
	GID    uint32
	Size   uint64
	Atime  int64 // virtual ns since boot
	Mtime  int64
	Ctime  int64
	Blocks uint32 // allocated data blocks (including indirect blocks)
	Direct [DirectBlocks]uint32
	Ind    uint32 // single indirect block
	DInd   uint32 // double indirect block
	Gen    uint32
	Flags  uint32
}

// encodeInode writes the inode into a 128-byte slot.
func encodeInode(ino *inode, slot []byte) {
	binary.BigEndian.PutUint16(slot[0:], ino.Mode)
	binary.BigEndian.PutUint16(slot[2:], ino.Links)
	binary.BigEndian.PutUint32(slot[4:], ino.UID)
	binary.BigEndian.PutUint32(slot[8:], ino.GID)
	binary.BigEndian.PutUint64(slot[12:], ino.Size)
	binary.BigEndian.PutUint64(slot[20:], uint64(ino.Atime))
	binary.BigEndian.PutUint64(slot[28:], uint64(ino.Mtime))
	binary.BigEndian.PutUint64(slot[36:], uint64(ino.Ctime))
	binary.BigEndian.PutUint32(slot[44:], ino.Blocks)
	for i := 0; i < DirectBlocks; i++ {
		binary.BigEndian.PutUint32(slot[48+4*i:], ino.Direct[i])
	}
	binary.BigEndian.PutUint32(slot[96:], ino.Ind)
	binary.BigEndian.PutUint32(slot[100:], ino.DInd)
	binary.BigEndian.PutUint32(slot[104:], ino.Gen)
	binary.BigEndian.PutUint32(slot[108:], ino.Flags)
}

// decodeInode parses a 128-byte slot.
func decodeInode(slot []byte) inode {
	ino := inode{
		Mode:  binary.BigEndian.Uint16(slot[0:]),
		Links: binary.BigEndian.Uint16(slot[2:]),
		UID:   binary.BigEndian.Uint32(slot[4:]),
		GID:   binary.BigEndian.Uint32(slot[8:]),
		Size:  binary.BigEndian.Uint64(slot[12:]),
		Atime: int64(binary.BigEndian.Uint64(slot[20:])),
		Mtime: int64(binary.BigEndian.Uint64(slot[28:])),
		Ctime: int64(binary.BigEndian.Uint64(slot[36:])),
	}
	ino.Blocks = binary.BigEndian.Uint32(slot[44:])
	for i := 0; i < DirectBlocks; i++ {
		ino.Direct[i] = binary.BigEndian.Uint32(slot[48+4*i:])
	}
	ino.Ind = binary.BigEndian.Uint32(slot[96:])
	ino.DInd = binary.BigEndian.Uint32(slot[100:])
	ino.Gen = binary.BigEndian.Uint32(slot[104:])
	ino.Flags = binary.BigEndian.Uint32(slot[108:])
	return ino
}

// The filesystem's fixed limits, in blocks.
const (
	// maxCoalesce bounds a single coalesced device write: 32 blocks =
	// 128 KB, matching the paper's observed mean iSCSI write request size.
	maxCoalesce = 32
	// maxDirtyData throttles writers: beyond this many dirty data blocks
	// a synchronous flush is forced (49152 blocks = 192 MB).
	maxDirtyData = 49152
	// readAheadWindow bounds read-ahead.
	readAheadWindow = 32
)

// Options configure a filesystem instance.
type Options struct {
	// CommitInterval is the journal commit interval (ext3 default: 5 s).
	CommitInterval time.Duration
	// NoAtime suppresses access-time updates on reads.
	NoAtime bool
	// CacheBlocks bounds the buffer cache (0 = 131072 blocks = 512 MB).
	CacheBlocks int
	// JournalBlocks sizes the journal at mkfs time (0 = 2048 = 8 MB).
	JournalBlocks int64
	// BlocksPerGroup/InodesPerGroup size block groups at mkfs time
	// (0 = 8192 blocks, 2048 inodes).
	BlocksPerGroup uint32
	InodesPerGroup uint32
	// SyncMetadata forces a journal commit inside every meta-data
	// mutation, before it returns. The NFS server exports with this set:
	// NFS semantics require meta-data updates to be durable before the
	// reply (Section 2.3 of the paper).
	SyncMetadata bool
	// CPU, when set, is charged PerOp/PerBlock demands for filesystem
	// code paths (the VFS + FS + block layer part of the paper's
	// processing-path analysis).
	CPU *CPUConfig
	// Tracer, when set, records buffer-cache miss handling as
	// tracing.LayerCache spans, parenting the device I/O the miss forces
	// (nil = tracing off; see docs/TRACING.md).
	Tracer *tracing.Tracer
	// Pool, when set, is where the buffer cache takes its blocks and returns
	// them where it drops them (eviction, Unmount, Crash); see the ownership
	// rules on bcache. Nil allocates from the heap.
	Pool *blockdev.Pool
}

// CPUConfig attaches a simulated CPU and the per-operation demands the
// filesystem charges to it.
type CPUConfig struct {
	Run      func(at, demand time.Duration) time.Duration
	PerOp    time.Duration // syscall entry + VFS + FS logic
	PerBlock time.Duration // per block touched (copy, checksum)
}

func (o *Options) fill() {
	if o.CommitInterval <= 0 {
		o.CommitInterval = 5 * time.Second
	}
	if o.CacheBlocks <= 0 {
		o.CacheBlocks = 131072
	}
	if o.JournalBlocks <= 0 {
		o.JournalBlocks = 2048
	}
	if o.BlocksPerGroup == 0 {
		o.BlocksPerGroup = 8192
	}
	if o.InodesPerGroup == 0 {
		o.InodesPerGroup = 2048
	}
}
