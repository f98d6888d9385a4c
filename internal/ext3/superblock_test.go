package ext3

import (
	"testing"
	"time"

	"repro/internal/blockdev"
)

// sbEncodedLen is how many bytes of block 0 superblock.encode fills.
const sbEncodedLen = 84

// smallGeometry is two whole groups and a partial third behind a 64-block
// journal: every geometry field of its superblock matters to some index.
var smallGeometry = Options{JournalBlocks: 64, BlocksPerGroup: 1024, InodesPerGroup: 64}

const smallBlocks = jStart + 64 + 2*1024 + 300

// formatSmall returns a freshly formatted small device and its block 0.
func formatSmall(t testing.TB) (*blockdev.Local, []byte) {
	t.Helper()
	dev := blockdev.NewTestbedArray(smallBlocks)
	if _, err := Mkfs(0, dev, smallGeometry); err != nil {
		t.Fatal(err)
	}
	blk := make([]byte, BlockSize)
	if err := dev.Store().ReadAt(sbBlock, blk); err != nil {
		t.Fatal(err)
	}
	return dev, blk
}

// exercise runs the operations that index with the superblock's geometry:
// both allocators, the inode table, an indirect block.
func exercise(fs *FS, at time.Duration) {
	if f, done, err := fs.Create(at, "/f", 0o644); err == nil {
		_, at, _ = f.WriteAt(done, 0, make([]byte, 100<<10))
	}
	_, _ = fs.Mkdir(at, "/d", 0o755)
}

var hostileSuperblocks = []struct {
	name  string
	patch func(sb *superblock)
}{
	{"no blocks per group", func(sb *superblock) { sb.BlocksPerGroup = 0 }},
	{"group wider than its bitmap", func(sb *superblock) { sb.BlocksPerGroup = 8*BlockSize + 1 }},
	{"no inodes per group", func(sb *superblock) { sb.InodesPerGroup = 0 }},
	{"inode bitmap wider than a block", func(sb *superblock) {
		sb.InodesPerGroup = 8*BlockSize + InodesPerBlock
		sb.InodesCount = sb.GroupCount * sb.InodesPerGroup
	}},
	{"inode table ends inside a block", func(sb *superblock) {
		sb.InodesPerGroup = 65
		sb.InodesCount = sb.GroupCount * sb.InodesPerGroup
	}},
	{"more inodes than the groups hold", func(sb *superblock) { sb.InodesCount += 64 }},
	{"no groups", func(sb *superblock) { sb.GroupCount = 0 }},
	{"groups past the GDT block", func(sb *superblock) { sb.GroupCount, sb.InodesCount = 5000, 5000*64 }},
	{"one group past the device", func(sb *superblock) { sb.GroupCount, sb.InodesCount = 4, 4*64 }},
	{"a group short of the device", func(sb *superblock) { sb.GroupCount, sb.InodesCount = 2, 2*64 }},
	{"journal over the superblock", func(sb *superblock) { sb.JournalStart = 0 }},
	{"journal start past int64", func(sb *superblock) { sb.JournalStart = 1<<64 - 60 }},
	{"file system larger than the device", func(sb *superblock) { sb.BlocksCount = smallBlocks + 1 }},
}

// acceptedSuperblocks pass the geometry check but are not what the image was
// formatted with: bitmaps, inode tables and the GDT are then read from the
// wrong blocks. Mount may accept them; nothing after it may panic.
var acceptedSuperblocks = []func(sb *superblock){
	func(sb *superblock) { sb.BlocksPerGroup = 1100 },
	func(sb *superblock) { sb.BlocksPerGroup, sb.GroupCount, sb.InodesCount = 8*BlockSize, 1, 64 },
	func(sb *superblock) { sb.InodesPerGroup, sb.InodesCount = 8*BlockSize, 3*8*BlockSize },
	func(sb *superblock) { sb.JournalBlocks, sb.BlocksPerGroup = 4, 1054 },
	func(sb *superblock) { sb.State, sb.LastCheckpointSeq = sbStateDirty, 1<<64-1 },
	func(sb *superblock) { sb.FreeBlocks, sb.FreeInodes, sb.BlocksCount = 0, 0, smallBlocks-200 },
}

// TestMountRejectsHostileGeometry patches one geometry field of a valid image
// at a time. Mount must refuse each with an error: before the check these
// divided by zero, indexed past the GDT or bitmap block, or addressed blocks
// the device does not have.
func TestMountRejectsHostileGeometry(t *testing.T) {
	for _, tc := range hostileSuperblocks {
		t.Run(tc.name, func(t *testing.T) {
			dev, blk := formatSmall(t)
			sb, err := decodeSuperblock(blk)
			if err != nil {
				t.Fatal(err)
			}
			tc.patch(sb)
			if err := dev.Store().WriteAt(sbBlock, sb.encode(blk)); err != nil {
				t.Fatal(err)
			}
			fs, at, err := Mount(0, dev, Options{})
			if err == nil {
				exercise(fs, at) // show what the accepted geometry does
				t.Fatal("Mount accepted the superblock")
			}
		})
	}
	// The unpatched image is what every case above is one field away from.
	dev, _ := formatSmall(t)
	if _, _, err := Mount(0, dev, Options{}); err != nil {
		t.Fatalf("valid image: %v", err)
	}
}

// TestMkfsRejectsHostileOptions: the same bounds on the way in.
func TestMkfsRejectsHostileOptions(t *testing.T) {
	for name, opts := range map[string]Options{
		"group of 2^20 blocks":            {BlocksPerGroup: 1 << 20},
		"group wider than its bitmap":     {BlocksPerGroup: 8*BlockSize + 1},
		"inode table ends inside a block": {InodesPerGroup: 33},
		"inode bitmap wider than a block": {InodesPerGroup: 1 << 16},
		"groups past the GDT block":       {BlocksPerGroup: 16, InodesPerGroup: 32},
		"last group without its bitmaps":  {JournalBlocks: 2048 - jStart, BlocksPerGroup: 6143, InodesPerGroup: 32},
	} {
		dev := blockdev.NewTestbedArray(2048 + 6143 + 1)
		if _, err := Mkfs(0, dev, opts); err == nil {
			t.Errorf("%s: Mkfs accepted %+v", name, opts)
		}
		if n := dev.Store().Populated(); n != 0 {
			t.Errorf("%s: a refused format wrote %d blocks", name, n)
		}
	}
}

// FuzzMountSuperblock overwrites the encoded superblock of a valid image with
// arbitrary bytes. Mount refuses or mounts; what mounts must survive both
// allocators, the inode table and an indirect block without a panic or a hang.
// Errors are expected and ignored.
func FuzzMountSuperblock(f *testing.F) {
	_, valid := formatSmall(f)
	f.Add(valid[:sbEncodedLen])
	for _, tc := range hostileSuperblocks {
		sb, err := decodeSuperblock(valid)
		if err != nil {
			f.Fatal(err)
		}
		tc.patch(sb)
		f.Add(sb.encode(make([]byte, BlockSize))[:sbEncodedLen])
	}
	for _, patch := range acceptedSuperblocks {
		sb, _ := decodeSuperblock(valid)
		patch(sb)
		if err := sb.checkGeometry(smallBlocks); err != nil {
			f.Fatalf("seed meant to pass the geometry check: %v", err)
		}
		f.Add(sb.encode(make([]byte, BlockSize))[:sbEncodedLen])
	}
	f.Fuzz(func(t *testing.T, image []byte) {
		dev, blk := formatSmall(t)
		copy(blk[:sbEncodedLen], image)
		if err := dev.Store().WriteAt(sbBlock, blk); err != nil {
			t.Fatal(err)
		}
		if fs, at, err := Mount(0, dev, Options{}); err == nil {
			exercise(fs, at)
		}
	})
}
