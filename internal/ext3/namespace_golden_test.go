package ext3

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/sim"
	"repro/internal/vfs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden")

// checkGolden compares got with testdata/name line by line, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("%s line %d drifted:\n got: %s\nwant: %s", name, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("%s: %d lines, golden has %d", name, len(gl), len(wl))
	}
}

// namespaceScript drives every namespace syscall through the path entry
// points (what the iSCSI client's mounted file system runs), one syscall per
// line. "cold" remounts first, so the syscall starts from empty caches; the
// line after it repeats the syscall warm on a sibling. "noatime on|off"
// remounts with that option. The corners are the ones the simulated-result
// pin does not reach: replacing creates and renames, cross-parent directory
// moves, every refusal a type or an occupied name causes, a directory that
// spans blocks.
const namespaceScript = `
mkdir /a
mkdir /a/b
mkdir /a/b/c
mkdir /a
mkdir /missing/x
cold mkdir /a/d
mkdir /a/e
cold create /a/f
create /a/g
write /a/f 9000
write /a/g 5000
cold create /a/f
create /a/g
cold create /a/b
create /a/d
write /a/f 20000
write /a/g 70000
cold symlink b/c /a/s
symlink /a/f /a/s2
symlink x /a/s
cold readlink /a/s
readlink /a/s2
readlink /a/f
cold stat /a/s/.
stat /a/s2
cold access /a/s2
access /a/b/c
cold link /a/f /a/b/h
link /a/g /a/b/h2
cold link /a/f /a/b/h
link /a/b /a/b/h3
cold open /a/b/h
open /a/b/h2
open /a/b
cold readdir /a
readdir /a
readdir /a/f
noatime on
cold readdir /a
readdir /a
noatime off
cold chmod /a/f 600
chmod /a/g 640
cold chown /a/f 7
chown /a/g 8
cold utimes /a/f 1000
utimes /a/g 2000
cold truncate /a/f 5000
truncate /a/g 100
cold truncate /a/f 30000
truncate /a/g 0
truncate /a/b 0
truncate /a/f -1
cold rename /a/f /a/f2
rename /a/g /a/g2
cold rename /a/f2 /a/g2
cold rename /a/g2 /a/g2
rename /a/g2 /a/b/h
create /a/k
write /a/k 9000
rename /a/g2 /a/k
cold rename /a/d /a/e
mkdir /a/d
rename /a/d /a/e
cold rename /a/e /a/b
rename /a/e /a/b
cold rename /a/k /a/e
rename /a/e /a/k
cold rename /a/b/c /a/e/c
rename /a/e/c /a/c
cold rename /a/c /a/b/c
rename /a/nope /a/x
cold rmdir /a/b
rmdir /a
rmdir /a/k
cold rmdir /a/e
mkdir /a/e
rmdir /a/e
cold unlink /a/b/h
unlink /a/k
unlink /a/b/h2
cold unlink /a/b
unlink /a/s
unlink /a/nope
cold stat /
readdir /
mkdir /big
populate /big 300
cold readdir /big
cold create /big/another-long-enough-name-to-need-room
cold unlink /big/file-with-a-long-name-to-fill-blocks-0299
cold rename /big/file-with-a-long-name-to-fill-blocks-0001 /big/file-with-a-long-name-to-fill-blocks-0300
cold rmdir /big
cold rename /big /a/big
readdir /a/big
sync
`

// nsExec runs one script line on fs at time at. Lines that produce a value
// (readlink, readdir, stat) append it to the label so the golden pins it.
func nsExec(fs *FS, at time.Duration, f []string) (string, time.Duration, error) {
	num := func(i int) int64 { n, _ := strconv.ParseInt(f[i], 10, 64); return n }
	switch f[0] {
	case "mkdir":
		done, err := fs.Mkdir(at, f[1], 0o755)
		return "", done, err
	case "rmdir":
		done, err := fs.Rmdir(at, f[1])
		return "", done, err
	case "create":
		_, done, err := fs.Create(at, f[1], 0o644)
		return "", done, err
	case "open":
		_, done, err := fs.Open(at, f[1])
		return "", done, err
	case "write":
		file, done, err := fs.Open(at, f[1])
		if err != nil {
			return "", done, err
		}
		_, done, err = file.WriteAt(done, 0, bytes.Repeat([]byte("namespace"), int(num(2))/9+1)[:num(2)])
		return "", done, err
	case "symlink":
		done, err := fs.Symlink(at, f[1], f[2])
		return "", done, err
	case "readlink":
		target, done, err := fs.Readlink(at, f[1])
		return " -> " + target, done, err
	case "link":
		done, err := fs.Link(at, f[1], f[2])
		return "", done, err
	case "unlink":
		done, err := fs.Unlink(at, f[1])
		return "", done, err
	case "rename":
		done, err := fs.Rename(at, f[1], f[2])
		return "", done, err
	case "readdir":
		ents, done, err := fs.ReadDir(at, f[1])
		return fmt.Sprintf(" -> %d entries", len(ents)), done, err
	case "stat":
		st, done, err := fs.Stat(at, f[1])
		return fmt.Sprintf(" -> mode=%o nlink=%d size=%d blocks=%d", st.Mode, st.Nlink, st.Size, st.Blocks), done, err
	case "access":
		done, err := fs.Access(at, f[1], vfs.AccessRead)
		return "", done, err
	case "chmod":
		mode, _ := strconv.ParseUint(f[2], 8, 16)
		done, err := fs.Chmod(at, f[1], vfs.Mode(mode))
		return "", done, err
	case "chown":
		done, err := fs.Chown(at, f[1], uint32(num(2)), uint32(num(2))+1)
		return "", done, err
	case "utimes":
		done, err := fs.Utimes(at, f[1], time.Duration(num(2)), time.Duration(num(2))+1)
		return "", done, err
	case "truncate":
		done, err := fs.Truncate(at, f[1], num(2))
		return "", done, err
	case "populate":
		done := at
		for i := 0; i < int(num(2)); i++ {
			var err error
			if _, done, err = fs.Create(done, fmt.Sprintf("%s/file-with-a-long-name-to-fill-blocks-%04d", f[1], i), 0o644); err != nil {
				return "", done, err
			}
		}
		return "", done, nil
	case "sync":
		done, err := fs.Sync(at)
		return "", done, err
	}
	return "", at, fmt.Errorf("namespace script: unknown verb %q", f[0])
}

// TestNamespaceOpsGolden pins what each namespace syscall costs and leaves
// behind on the paper's array with the CPU model on: per line the error, the
// completion time, buffer-cache and journal counters of the current mount,
// the array's counters and the free counts. Generated on the code before the
// path operations became a walk plus the by-inode engine, and byte-identical
// after; CHANGES.md (PR 19) lists the lines a later fix moved, with reasons.
// Regenerate with go test ./internal/ext3 -run NamespaceOpsGolden -update.
func TestNamespaceOpsGolden(t *testing.T) {
	dev := blockdev.NewTestbedArray(32768)
	if _, err := Mkfs(0, dev, Options{}); err != nil {
		t.Fatal(err)
	}
	cpu := sim.NewCPU(1)
	opts := Options{CPU: &CPUConfig{Run: cpu.Run, PerOp: 30 * time.Microsecond, PerBlock: 5 * time.Microsecond}}
	fs, now, err := Mount(0, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	remount := func() {
		t.Helper()
		if now, err = fs.Unmount(now); err != nil {
			t.Fatal(err)
		}
		if fs, now, err = Mount(now, dev, opts); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	for _, line := range strings.Split(strings.TrimSpace(namespaceScript), "\n") {
		f := strings.Fields(line)
		if f[0] == "noatime" {
			opts.NoAtime = f[1] == "on"
			remount()
			continue
		}
		if f[0] == "cold" {
			remount()
			f = f[1:]
		}
		// Steps are 3 s apart, so the 5 s commit timer fires on every warm line.
		now += 3 * time.Second
		val, done, err := nsExec(fs, now, f)
		now = done
		hits, misses, evictions := fs.CacheStats()
		commits, checkpoints := fs.journalStats()
		fmt.Fprintf(&got, "%-44s err=%v t=%d cache=%d/%d/%d journal=%d/%d disk=%+v free=%d/%d\n",
			line+val, err, done, hits, misses, evictions, commits, checkpoints, dev.Stats(), fs.FreeBlocks(), fs.FreeInodes())
	}
	checkGolden(t, "namespace_ops.golden", got.String())
}
