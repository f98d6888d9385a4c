package ext3

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/vfs"
)

// hintHarness drives one directory d, under one of two parents, through
// inserts, removals, renames, ".." rewrites and inode reuse, and checks
// every insert against a hint-free walk of d's cached blocks.
type hintHarness struct {
	t       *testing.T
	fs      *FS
	at      time.Duration
	parents [2]Ino
	parent  int // which of parents holds d
	d       Ino
	live    []string // d's entries, "." and ".." aside
	names   int      // names made so far: each fresh name is unique
}

func newHintHarness(t *testing.T) *hintHarness {
	dev := blockdev.NewTestbedArray(32768)
	if _, err := Mkfs(0, dev, Options{NoAtime: true}); err != nil {
		t.Fatal(err)
	}
	fs, at, err := Mount(0, dev, Options{NoAtime: true})
	if err != nil {
		t.Fatal(err)
	}
	h := &hintHarness{t: t, fs: fs, at: at}
	for i := range h.parents {
		h.parents[i] = h.must(h.fs.MkdirAt(h.at, RootIno, "p"+strconv.Itoa(i), 0o755))
	}
	h.d = h.must(h.fs.MkdirAt(h.at, h.parents[0], "d", 0o755))
	return h
}

// must takes a call that makes an inode and must succeed.
func (h *hintHarness) must(ino Ino, _ vfs.Stat, done time.Duration, err error) Ino {
	h.t.Helper()
	if err != nil {
		h.t.Fatal(err)
	}
	h.at = max(h.at, done)
	return ino
}

func (h *hintHarness) ok(what string, done time.Duration, err error) {
	h.t.Helper()
	if err != nil {
		h.t.Fatalf("%s: %v", what, err)
	}
	h.at = max(h.at, done)
}

// fresh returns a name of about n bytes (1 to 60) never used before: a
// decimal counter padded with letters.
func (h *hintHarness) fresh(n byte) string {
	h.names++
	s := strconv.Itoa(h.names)
	return s + strings.Repeat("x", max(0, 1+int(n)%60-len(s)))
}

// blocks returns d's blocks as the cache holds them, in file-block order.
func (h *hintHarness) blocks() [][]byte {
	n := h.fs.icache[h.d]
	var out [][]byte
	for fb := int64(0); fb*BlockSize < int64(n.Size); fb++ {
		b := h.fs.bc.peek(h.fs.bmapPeek(n, fb))
		if b == nil {
			h.t.Fatalf("block %d of the directory is not cached", fb)
		}
		out = append(out, b.data)
	}
	return out
}

// where is the (file block, offset) of name's record in d, or (-1, -1).
func (h *hintHarness) where(name string) (int64, int) {
	for fb, b := range h.blocks() {
		w := direntWalker{block: b}
		for w.next() {
			if w.is(name) {
				return int64(fb), w.off
			}
		}
	}
	return -1, -1
}

// insert runs op, which adds name to d after removing gone from it (if
// gone is not ""), and checks that the entry lands where direntRemove and
// direntAdd on a copy of each of d's blocks in turn, from the first, put it:
// in the first block with room, or at the start of a new block after the
// last. A removal from a later block cannot give an earlier one room.
func (h *hintHarness) insert(gone, name string, op func() (time.Duration, error)) {
	h.t.Helper()
	blocks := h.blocks()
	wantFB, wantOff := int64(len(blocks)), 0
	c := make([]byte, BlockSize)
	for fb, b := range blocks {
		copy(c, b)
		if gone != "" && direntRemove(c, gone) {
			gone = ""
		}
		if _, ok := direntAdd(c, name, 1, ftRegular); ok {
			w := direntWalker{block: c}
			for w.next() && !w.is(name) {
			}
			wantFB, wantOff = int64(fb), w.off
			break
		}
	}
	done, err := op()
	h.ok("insert "+name, done, err)
	if fb, off := h.where(name); fb != wantFB || off != wantOff {
		h.t.Fatalf("%q entered at block %d offset %d; the walk puts it at block %d offset %d",
			name, fb, off, wantFB, wantOff)
	}
	h.live = append(h.live, name)
}

func (h *hintHarness) create(n byte) {
	name := h.fresh(n)
	h.insert("", name, func() (time.Duration, error) {
		_, _, done, err := h.fs.CreateAt(h.at, h.d, name, 0o644)
		return done, err
	})
}

// take removes and returns the live entry i picks.
func (h *hintHarness) take(i byte) string {
	k := int(i) % len(h.live)
	name := h.live[k]
	h.live[k] = h.live[len(h.live)-1]
	h.live = h.live[:len(h.live)-1]
	return name
}

// check looks up d's "." and ".." (d and its parent), and holds every hint
// to the block it describes: a known hint is 1 + the largest slack a parse
// of the block finds now.
func (h *hintHarness) check(what string) {
	h.t.Helper()
	blocks := h.blocks()
	for name, want := range map[string]Ino{".": h.d, "..": h.parents[h.parent]} {
		if ino, _, _, err := h.fs.dirLookup(h.at, h.d, name); err != nil || ino != want {
			h.t.Fatalf("after %s: %q in the directory is %d (%v), want %d", what, name, ino, err, want)
		}
	}
	idx := h.fs.names[h.d]
	if idx == nil {
		return
	}
	for fb, r := range idx.room {
		if r == 0 {
			continue
		}
		if fb >= len(blocks) {
			h.t.Fatalf("after %s: a hint for block %d of a directory of %d", what, fb, len(blocks))
		}
		slack := 0
		w := direntWalker{block: blocks[fb]}
		for w.next() {
			used := 0
			if w.name != nil {
				used = direntRecLen(len(w.name))
			}
			slack = max(slack, w.rec-used)
		}
		if int(r) != slack+1 {
			h.t.Fatalf("after %s: block %d's hint says slack %d, the block has %d", what, fb, int(r)-1, slack)
		}
	}
}

// step runs the operation op names, with arg for its name or choice.
func (h *hintHarness) step(op, arg byte) {
	other := h.parents[1-h.parent]
	switch {
	case op < 100 || len(h.live) == 0:
		h.create(arg)
	case op < 150:
		name := h.take(arg)
		done, err := h.fs.RemoveAt(h.at, h.d, name)
		h.ok("remove "+name, done, err)
	case op < 175:
		old, name := h.take(arg), h.fresh(arg/3)
		h.insert(old, name, func() (time.Duration, error) { return h.fs.RenameAt(h.at, h.d, old, h.d, name) })
	case op < 200:
		// A file moved in from the parent, then another name for it.
		out, name, link := h.fresh(arg), h.fresh(arg/5), h.fresh(arg/7)
		ino := h.must(h.fs.CreateAt(h.at, h.parents[h.parent], out, 0o644))
		h.insert("", name, func() (time.Duration, error) {
			return h.fs.RenameAt(h.at, h.parents[h.parent], out, h.d, name)
		})
		h.insert("", link, func() (time.Duration, error) {
			_, done, err := h.fs.LinkAt(h.at, ino, h.d, link)
			return done, err
		})
	case op < 250:
		// The ".." rewrite: d moves to the other parent.
		done, err := h.fs.RenameAt(h.at, h.parents[h.parent], "d", other, "d")
		h.ok("move the directory", done, err)
		h.parent = 1 - h.parent
	default:
		// Empty d, remove it and make the next directory, which takes its
		// inode number, under the other parent.
		for len(h.live) > 0 {
			name := h.take(0)
			done, err := h.fs.RemoveAt(h.at, h.d, name)
			h.ok("drain "+name, done, err)
		}
		done, err := h.fs.RmdirAt(h.at, h.parents[h.parent], "d")
		h.ok("rmdir the directory", done, err)
		h.parent = 1 - h.parent
		h.d = h.must(h.fs.MkdirAt(h.at, other, "d", 0o755))
	}
	h.check(fmt.Sprintf("op %d arg %d", op, arg))
}

// FuzzDirentHintMatchesWalk: after enough creates to fill a few blocks, the
// pairs of ops (operation, argument) create, remove, rename within the
// directory, move a file in and link it, move the directory to the other
// parent (its ".." rewrite), or drain, remove and remake it under the other
// parent with its inode number. Every insert lands where the hint-free walk
// puts it, every hint matches its block, and ".." names the parent.
func FuzzDirentHintMatchesWalk(f *testing.F) {
	f.Add(byte(200), []byte{120, 7, 130, 8, 140, 9, 160, 30, 190, 4, 0, 60, 210, 0, 0, 1, 120, 3, 255, 0, 0, 2, 0, 59})
	f.Add(byte(255), []byte{100, 1, 110, 2, 120, 3, 0, 59, 0, 58, 140, 4, 0, 10, 230, 1, 0, 11, 170, 5, 0, 40})
	f.Add(byte(60), []byte{250, 0, 0, 1, 0, 2, 240, 0, 0, 3})
	f.Fuzz(func(t *testing.T, fill byte, ops []byte) {
		h := newHintHarness(t)
		for i := 0; i < 2*int(fill); i++ {
			h.create(byte(i * 7))
		}
		for len(ops) >= 2 && h.names < 2000 {
			h.step(ops[0], ops[1])
			ops = ops[2:]
		}
	})
}

// TestDirectoryInsertsParseFewRecords is the guard against a quadratic in
// directory inserts: 5,000 creates in one directory, a removal after every
// third, with names long enough that the directory grows past 30 blocks.
// Each block of the directory is still fetched, but a create parses the
// records of only the blocks whose room it does not know.
func TestDirectoryInsertsParseFewRecords(t *testing.T) {
	h := newHintHarness(t)
	var n int
	parsed = func() { n++ }
	defer func() { parsed = nil }()
	const creates = 5000
	records := 0
	for i := 0; i < creates; i++ {
		name := fmt.Sprintf("file-%05d-of-a-postmark-pool", i)
		before := n
		h.must(h.fs.CreateAt(h.at, h.d, name, 0o644))
		records += n - before
		h.live = append(h.live, name)
		if i%3 == 2 {
			old := h.take(byte(i))
			done, err := h.fs.RemoveAt(h.at, h.d, old)
			h.ok("remove "+old, done, err)
		}
	}
	blocks := h.fs.icache[h.d].Size / BlockSize
	mean := float64(records) / float64(creates)
	t.Logf("%d creates into %d blocks parsed %d records, %.1f each", creates, blocks, records, mean)
	if blocks < 30 {
		t.Fatalf("the directory has %d blocks, want at least 30", blocks)
	}
	if mean > 200 {
		t.Fatalf("a create parses %.1f records on average, want at most 200", mean)
	}
}
