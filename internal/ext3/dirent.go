package ext3

import (
	"encoding/binary"
	"fmt"

	"repro/internal/vfs"
)

// Directory blocks use ext2-style packed entries:
//
//	+--------+--------+---------+-------+----------------+
//	| ino u32| rec u16| nlen u8 | ft u8 | name (padded)  |
//	+--------+--------+---------+-------+----------------+
//
// Entries tile a block completely: the final entry's record length extends
// to the end of the block. Removal merges an entry into its predecessor
// (or zeroes the inode for the first slot). This mirrors the real format
// closely enough that directory capacity, split and scan behaviour match.

const direntHeader = 8

// File type bytes stored in directory entries.
const (
	ftUnknown byte = 0
	ftRegular byte = 1
	ftDir     byte = 2
	ftSymlink byte = 7
)

// ftypeOfMode maps an inode mode to its directory-entry type byte, and
// modeOfFtype maps the byte back to the mode's type bits.
func ftypeOfMode(m vfs.Mode) byte {
	switch m & vfs.TypeMask {
	case vfs.ModeDir:
		return ftDir
	case vfs.ModeSymlink:
		return ftSymlink
	}
	return ftRegular
}

func modeOfFtype(ft byte) vfs.Mode {
	switch ft {
	case ftDir:
		return vfs.ModeDir
	case ftSymlink:
		return vfs.ModeSymlink
	}
	return vfs.ModeRegular
}

// dirent is a decoded directory entry.
type dirent struct {
	Ino   Ino
	FType byte
	Name  string
}

// direntRecLen returns the padded record size for a name length.
func direntRecLen(nameLen int) int {
	return (direntHeader + nameLen + 3) &^ 3
}

// direntInitBlock formats an empty directory block containing "." and "..".
func direntInitBlock(block []byte, self, parent Ino) {
	clear(block)
	// "."
	binary.BigEndian.PutUint32(block[0:], uint32(self))
	binary.BigEndian.PutUint16(block[4:], uint16(direntRecLen(1)))
	block[6] = 1
	block[7] = ftDir
	block[8] = '.'
	// ".." consumes the rest of the block.
	off := direntRecLen(1)
	binary.BigEndian.PutUint32(block[off:], uint32(parent))
	binary.BigEndian.PutUint16(block[off+4:], uint16(len(block)-off))
	block[off+6] = 2
	block[off+7] = ftDir
	block[off+8] = '.'
	block[off+9] = '.'
}

// direntInitEmpty formats a block as one free record spanning it (used when
// a directory grows a fresh block).
func direntInitEmpty(block []byte) {
	clear(block)
	binary.BigEndian.PutUint16(block[4:], uint16(len(block)))
}

// direntWalker is the one walk over a directory block; every entry point
// below steps it rather than decoding records itself. next checks a record
// before yielding it, so after it returns true
//
//	off+direntHeader <= off+rec <= len(block), rec%4 == 0, and
//	name (nil for a free record) lies inside block,
//
// and callers index block[off:off+rec] without further checks. name aliases
// the block: is compares it in place (string(b) == s does not allocate) and
// only direntList copies it. A record that fails a check ends the walk with
// err set, after the records before it were yielded and before anything is
// written through it.
type direntWalker struct {
	block     []byte
	prev, off int    // previous (if off > 0) and current record
	rec       int    // current record length
	name      []byte // current live entry's name, in place
	err       error
}

func (w *direntWalker) next() bool {
	b, off := w.block, w.off+w.rec
	if w.err != nil || off >= len(b) {
		return false
	}
	if off+direntHeader > len(b) {
		w.err = fmt.Errorf("ext3: corrupt dirent block: header overruns at %d", off)
		return false
	}
	rec := int(binary.BigEndian.Uint16(b[off+4:]))
	if rec < direntHeader || off+rec > len(b) || rec%4 != 0 {
		w.err = fmt.Errorf("ext3: corrupt dirent block: bad reclen %d at %d", rec, off)
		return false
	}
	var name []byte
	if nlen := int(b[off+6]); nlen > 0 && binary.BigEndian.Uint32(b[off:]) != 0 {
		if off+direntHeader+nlen > len(b) {
			w.err = fmt.Errorf("ext3: corrupt dirent block: name overruns at %d", off)
			return false
		}
		name = b[off+direntHeader : off+direntHeader+nlen]
	}
	w.prev, w.off, w.rec, w.name = w.off, off, rec, name
	if parsed != nil {
		parsed()
	}
	return true
}

// parsed, when set, is called for every record a walk yields: tests count
// the records an operation parses.
var parsed func()

func (w *direntWalker) ino() Ino    { return Ino(binary.BigEndian.Uint32(w.block[w.off:])) }
func (w *direntWalker) ftype() byte { return w.block[w.off+7] }

// is reports whether the current record is the live entry called name.
func (w *direntWalker) is(name string) bool { return w.name != nil && string(w.name) == name }

// direntFind locates name in a block (before its first bad record, if any).
func direntFind(block []byte, name string) (ino Ino, ftype byte, ok bool) {
	w := direntWalker{block: block}
	for w.next() {
		if w.is(name) {
			return w.ino(), w.ftype(), true
		}
	}
	return 0, 0, false
}

// direntList returns all live entries in a block, and the walk's error.
func direntList(block []byte) ([]dirent, error) {
	var out []dirent
	w := direntWalker{block: block}
	for w.next() {
		if w.name != nil {
			out = append(out, dirent{Ino: w.ino(), FType: w.ftype(), Name: string(w.name)})
		}
	}
	return out, w.err
}

// direntAdd inserts an entry into a block if space permits, splitting an
// existing record's slack. It returns false if no record before the end of
// the walk has room, and then slack is the largest room it walked past.
func direntAdd(block []byte, name string, ino Ino, ftype byte) (slack int, ok bool) {
	need := direntRecLen(len(name))
	w := direntWalker{block: block}
	for w.next() {
		used := 0
		if w.name != nil {
			used = direntRecLen(len(w.name))
		}
		if w.rec-used < need {
			slack = max(slack, w.rec-used)
			continue
		}
		// Reuse a free record in place; shrink a live one and insert after.
		insOff := w.off
		if used > 0 {
			binary.BigEndian.PutUint16(block[w.off+4:], uint16(used))
			insOff = w.off + used
			binary.BigEndian.PutUint16(block[insOff+4:], uint16(w.rec-used))
		}
		binary.BigEndian.PutUint32(block[insOff:], uint32(ino))
		block[insOff+6] = byte(len(name))
		block[insOff+7] = ftype
		copy(block[insOff+direntHeader:], name)
		return 0, true
	}
	return slack, false
}

// direntRemove deletes name from a block, merging its space into the
// predecessor record. Returns false if the name is not present.
func direntRemove(block []byte, name string) bool {
	w := direntWalker{block: block}
	for w.next() {
		if !w.is(name) {
			continue
		}
		if w.off > 0 {
			prec := int(binary.BigEndian.Uint16(block[w.prev+4:]))
			binary.BigEndian.PutUint16(block[w.prev+4:], uint16(prec+w.rec))
		} else {
			binary.BigEndian.PutUint32(block[w.off:], 0)
			block[w.off+6] = 0
		}
		return true
	}
	return false
}

// direntEmpty reports whether a directory block holds no live entries other
// than "." and ".."; a corrupt block is not empty (rmdir must not free it).
func direntEmpty(block []byte) bool {
	w := direntWalker{block: block}
	for w.next() {
		if w.name != nil && !w.is(".") && !w.is("..") {
			return false
		}
	}
	return w.err == nil
}
