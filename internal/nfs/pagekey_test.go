package nfs

import (
	"errors"
	"testing"
	"unsafe"

	"repro/internal/vfs"
)

// TestPageFitsChunkSlots: blockdev.chunkSlots (76) is chosen so that a chunk
// of 88-byte pages nearly fills a malloc size class. A field added to page
// changes that fit, and bulk-write's bytes per pass show it.
func TestPageFitsChunkSlots(t *testing.T) {
	if n := unsafe.Sizeof(page{}); n != 88 {
		t.Fatalf("page is %d bytes, want 88 (see blockdev.chunkSlots)", n)
	}
}

// TestPageKeyPacksExactly: id is ino<<32 | idx, and pageRange refuses every
// range whose keys would not pack that way instead of folding them onto
// another file's or another offset's page.
func TestPageKeyPacksExactly(t *testing.T) {
	for _, k := range []pageKey{{0, 0}, {1, 0}, {0, 1}, {7, 12345}, {maxPageWord, maxPageWord}} {
		id := k.id()
		if got := (pageKey{id >> 32, int64(id & maxPageWord)}); got != k {
			t.Errorf("%+v packs to %#x, which unpacks to %+v", k, id, got)
		}
	}
	for _, c := range []struct {
		ino         uint64
		off, n      int64
		first, last int64
		ok          bool
	}{
		{ino: 3, off: 0, n: 4096, first: 0, last: 0, ok: true},
		{ino: 3, off: 4095, n: 2, first: 0, last: 1, ok: true},
		{ino: maxPageWord, off: maxPageWord * pageSize, n: pageSize, first: maxPageWord, last: maxPageWord, ok: true},
		{ino: maxPageWord + 1, off: 0, n: 1},
		{ino: 3, off: -1, n: 2},
		{ino: 3, off: -pageSize, n: pageSize},
		{ino: 3, off: (maxPageWord + 1) * pageSize, n: 1},
		{ino: 3, off: maxPageWord * pageSize, n: pageSize + 1},
	} {
		first, last, err := pageRange(c.ino, c.off, c.n)
		switch {
		case c.ok && (err != nil || first != c.first || last != c.last):
			t.Errorf("pageRange(%d, %d, %d) = %d, %d, %v; want %d, %d", c.ino, c.off, c.n, first, last, err, c.first, c.last)
		case !c.ok && !errors.Is(err, vfs.ErrInvalid):
			t.Errorf("pageRange(%d, %d, %d) = %d, %d, %v; want ErrInvalid", c.ino, c.off, c.n, first, last, err)
		}
	}
}

// TestWriteBeyondPackedKeyIsRefused: a cached write at page 2^32 is refused
// with ErrInvalid before anything is cached or queued, and page 0 of the
// same file, which the index's low 32 bits would name, keeps its bytes.
func TestWriteBeyondPackedKeyIsRefused(t *testing.T) {
	for _, ver := range []Version{V3, V4} {
		c, _, _ := rig(t, ver)
		f, at, err := c.Create(0, "/f", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		page0 := []byte("page zero")
		if _, at, err = f.WriteAt(at, 0, page0); err != nil {
			t.Fatal(err)
		}
		cached, queued := len(c.pages.pages), len(c.wb.queue)
		for _, off := range []int64{(maxPageWord + 1) * pageSize, -pageSize} {
			n, done, err := f.WriteAt(at, off, []byte("folded"))
			if !errors.Is(err, vfs.ErrInvalid) || n != 0 || done != at {
				t.Fatalf("%v: write at %d = %d, %v, %v; want ErrInvalid at %v", ver, off, n, done, err, at)
			}
			if _, _, err := f.ReadAt(at, off, make([]byte, 1)); off < 0 && !errors.Is(err, vfs.ErrInvalid) {
				t.Fatalf("%v: read at %d: %v, want ErrInvalid", ver, off, err)
			}
		}
		if len(c.pages.pages) != cached || len(c.wb.queue) != queued {
			t.Fatalf("%v: the refused writes cached %d pages and queued %d", ver, len(c.pages.pages)-cached, len(c.wb.queue)-queued)
		}
		got := make([]byte, len(page0))
		if _, _, err := f.ReadAt(at, 0, got); err != nil || string(got) != string(page0) {
			t.Fatalf("%v: page 0 reads %q, %v; want %q", ver, got, err, page0)
		}
	}
}

// TestProcNames: every procedure up to the last has its own name, and a
// value outside the enum reads UNKNOWN.
func TestProcNames(t *testing.T) {
	seen := map[string]Proc{}
	for p := ProcNull; p < procCount; p++ {
		s := p.String()
		if s == "" || s == "UNKNOWN" {
			t.Errorf("Proc %d has no name", p)
		}
		if q, dup := seen[s]; dup {
			t.Errorf("Procs %d and %d are both %s", q, p, s)
		}
		seen[s] = p
	}
	if ProcUnlock.String() != "UNLOCK" || ProcUnlock+1 != procCount {
		t.Fatalf("the last procedure is %v, and procCount is %d", ProcUnlock, procCount)
	}
	for _, p := range []Proc{-1, procCount, procCount + 100} {
		if s := p.String(); s != "UNKNOWN" {
			t.Errorf("Proc %d reads %q, want UNKNOWN", p, s)
		}
	}
}
