package ext3

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/vfs"
)

// setRec overwrites the record header at off.
func setRec(block []byte, off int, ino Ino, rec int, nlen byte) {
	binary.BigEndian.PutUint32(block[off:], uint32(ino))
	binary.BigEndian.PutUint16(block[off+4:], uint16(rec))
	block[off+6] = nlen
	block[off+7] = ftRegular
}

// TestDirentCorruptBlocks: every entry point shares the walker's checks, so
// a crafted block reads as "not found"/false/error from all five and none
// of them panics or writes to it. The first case used to panic in
// direntAdd and direntRemove (index out of range [4096] with length 4096).
func TestDirentCorruptBlocks(t *testing.T) {
	// A full block, so direntAdd finds no room before the bad record.
	full, _ := fullDirBlock()
	w := direntWalker{block: full}
	for w.next() {
	}
	last := w.off
	cases := []struct {
		name    string
		corrupt func(b []byte)
		errHas  string
	}{
		{"first record 4090 bytes long", func(b []byte) { setRec(b, 0, 2, 4090, 1) }, "bad reclen 4090 at 0"},
		{"header overruns the block", func(b []byte) {
			binary.BigEndian.PutUint16(b[last+4:], uint16(BlockSize-4-last))
		}, "header overruns at 4092"},
		{"record shorter than its header", func(b []byte) { setRec(b, 12, 2, 4, 2) }, "bad reclen 4 at 12"},
		{"record runs past the block", func(b []byte) { setRec(b, 12, 2, BlockSize, 2) }, "bad reclen 4096 at 12"},
		{"name runs past the block", func(b []byte) { b[last+6] = 255 }, fmt.Sprintf("name overruns at %d", last)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			block := bytes.Clone(full)
			tc.corrupt(block)
			before := bytes.Clone(block)
			if _, _, ok := direntFind(block, "victim"); ok {
				t.Error("direntFind found a name in a corrupt block")
			}
			if direntRemove(block, "victim") {
				t.Error("direntRemove reported success")
			}
			if direntAdd(block, "victim", 77, ftRegular) {
				t.Error("direntAdd reported success")
			}
			if direntEmpty(block) {
				t.Error("direntEmpty called a corrupt block empty")
			}
			if _, err := direntList(block); err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("direntList error = %v, want one containing %q", err, tc.errHas)
			}
			if !bytes.Equal(block, before) {
				t.Error("a failed operation wrote to the block")
			}
		})
	}
}

// TestDirentEmptyNameNeverMatches: free records carry no name; looking up
// or removing "" must not take one for a match.
func TestDirentEmptyNameNeverMatches(t *testing.T) {
	block := make([]byte, BlockSize)
	direntInitEmpty(block)
	if _, _, ok := direntFind(block, ""); ok {
		t.Error(`direntFind("") matched a free record`)
	}
	if direntRemove(block, "") {
		t.Error(`direntRemove("") matched a free record`)
	}
}

// fullDirBlock returns a block packed with names f0, f1, ... until one no
// longer fits, and the last name added.
func fullDirBlock() (block []byte, last string) {
	block = make([]byte, BlockSize)
	direntInitBlock(block, 2, 2)
	for i := 0; ; i++ {
		name := fmt.Sprintf("f%d", i)
		if !direntAdd(block, name, Ino(10+i), ftRegular) {
			return block, last
		}
		last = name
	}
}

// TestDirentFindAllocatesNothing: a lookup walks past every entry of a full
// block without building a string for any of them.
func TestDirentFindAllocatesNothing(t *testing.T) {
	block, last := fullDirBlock()
	for _, name := range []string{last, "absent"} {
		if n := testing.AllocsPerRun(100, func() { direntFind(block, name) }); n != 0 {
			t.Errorf("direntFind(%q) on a full block: %v allocs/op, want 0", name, n)
		}
	}
}

// TestWarmLookupAllocatesNothing: resolving an existing name in a 500-entry
// directory allocates nothing once the blocks are cached, through the dentry
// cache and, with its entry dropped, through the directory scan; nor does a
// miss once the miss before it has indexed the directory.
func TestWarmLookupAllocatesNothing(t *testing.T) {
	fs, _ := newTestFS(t)
	if _, err := fs.Mkdir(0, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		f, _, err := fs.Create(0, fmt.Sprintf("/d/f%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Close(0); err != nil {
			t.Fatal(err)
		}
	}
	dir, _, err := fs.namei(0, "/d", true)
	if err != nil {
		t.Fatal(err)
	}
	lookup := func() {
		if _, _, err := fs.namei(0, "/d/f499", true); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, lookup); n != 0 {
		t.Errorf("dentry-cache lookup: %v allocs/op, want 0", n)
	}
	scan := func() {
		delete(fs.dcache, dcacheKey{dir, "f499"})
		lookup()
	}
	if n := testing.AllocsPerRun(100, scan); n != 0 {
		t.Errorf("directory-scan lookup: %v allocs/op, want 0", n)
	}
	miss := func() {
		if _, _, err := fs.namei(0, "/d/absent", true); err != vfs.ErrNotExist {
			t.Fatal(err)
		}
	}
	miss() // builds the index
	if fs.names[dir] == nil {
		t.Fatal("a miss in a directory of two blocks built no index")
	}
	if n := testing.AllocsPerRun(100, miss); n != 0 {
		t.Errorf("miss in an indexed directory: %v allocs/op, want 0", n)
	}
}

// FuzzDirentBlock feeds any 4 KB block through the five entry points: none
// may panic, none may touch memory around the block, and a block that lists
// cleanly still does after an add or a remove, with the added name found.
func FuzzDirentBlock(f *testing.F) {
	block := make([]byte, BlockSize)
	direntInitBlock(block, 2, 2)
	f.Add(bytes.Clone(block), "a")
	direntAdd(block, "some-file.txt", 12, ftRegular)
	direntAdd(block, "x", 13, ftDir)
	f.Add(bytes.Clone(block), "x")
	direntInitEmpty(block)
	f.Add(bytes.Clone(block), "fresh")
	setRec(block, 0, 2, 4090, 1)
	f.Add(bytes.Clone(block), "victim")

	f.Fuzz(func(t *testing.T, data []byte, name string) {
		const guard = 64
		buf := bytes.Repeat([]byte{0xA5}, guard+BlockSize+guard)
		block := buf[guard : guard+BlockSize]
		clear(block)
		copy(block, data)

		before, errBefore := direntList(block)
		direntEmpty(block)
		_, _, found := direntFind(block, name)
		if removed := direntRemove(block, name); removed != found {
			t.Fatalf("direntFind = %v but direntRemove = %v", found, removed)
		}
		added := len(name) > 0 && len(name) <= 255 && direntAdd(block, name, 99, ftRegular)
		if added {
			if ino, ft, ok := direntFind(block, name); !ok || ino != 99 || ft != ftRegular {
				t.Fatalf("added %q, found (%d, %d, %v)", name, ino, ft, ok)
			}
		}
		after, errAfter := direntList(block)
		if errBefore == nil {
			if errAfter != nil {
				t.Fatalf("a clean block lists with %v after remove/add", errAfter)
			}
			want := len(before)
			if found {
				want--
			}
			if added {
				want++
			}
			if len(after) != want {
				t.Fatalf("%d entries, remove=%v add=%v, then %d", len(before), found, added, len(after))
			}
		}
		for i := 0; i < guard; i++ {
			if buf[i] != 0xA5 || buf[guard+BlockSize+i] != 0xA5 {
				t.Fatal("wrote outside the block")
			}
		}
	})
}
