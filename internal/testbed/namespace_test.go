package testbed_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/ext3"
	"repro/internal/testbed"
	"repro/internal/vfs"
)

// The paper runs the same ext3 under both stacks; these tests hold the
// simulator to that. Every syscall goes to the mounted vfs.FileSystem itself
// (not through Client's wrappers, which clean paths first), so a hostile
// argument reaches the stack as written.

func namespaceBed(t *testing.T, kind testbed.Kind) *testbed.Testbed {
	t.Helper()
	tb, err := testbed.New(testbed.Config{Kind: kind, DeviceBlocks: 16384, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Cluster.Close)
	return tb
}

// sys runs one syscall on tb's filesystem at the client's clock.
func sys(tb *testbed.Testbed, call func(fs vfs.FileSystem, at time.Duration) (time.Duration, error)) error {
	done, err := call(tb.FS, tb.Clock.Now())
	tb.Clock.AdvanceTo(done)
	return err
}

// ext3Of is the one ext3 a testbed has: the iSCSI client's, or the NFS export.
func ext3Of(tb *testbed.Testbed) *ext3.FS {
	if fs, ok := tb.FS.(*ext3.FS); ok {
		return fs
	}
	return tb.Cluster.NFSServer().FS()
}

// errClass names the vfs error err is, so that stacks that wrap differently
// still compare equal.
func errClass(err error) string {
	for _, e := range []error{vfs.ErrNotExist, vfs.ErrExist, vfs.ErrNotDir, vfs.ErrIsDir, vfs.ErrNotEmpty,
		vfs.ErrNoSpace, vfs.ErrNameTooLong, vfs.ErrInvalid, vfs.ErrStale, vfs.ErrIO} {
		if errors.Is(err, e) {
			return e.Error()
		}
	}
	return fmt.Sprint(err)
}

// treeOf renders everything visible below the root: per path its type, mode
// bits, owner, size and link count (a symlink: its target). The clock first
// moves past every client cache lifetime, so an NFS client revalidates and the
// rendering is what the file system holds, not what the client remembers.
func treeOf(t *testing.T, tb *testbed.Testbed) string {
	t.Helper()
	tb.Idle(2 * time.Minute)
	var lines []string
	var walk func(dir string)
	walk = func(dir string) {
		var ents []vfs.DirEntry
		if err := sys(tb, func(fs vfs.FileSystem, at time.Duration) (done time.Duration, err error) {
			ents, done, err = fs.ReadDir(at, dir)
			return done, err
		}); err != nil {
			t.Fatalf("%s: readdir %s: %v", tb.Kind, dir, err)
		}
		for _, e := range ents {
			p := strings.TrimSuffix(dir, "/") + "/" + e.Name
			if e.Mode.IsSymlink() {
				var target string
				if err := sys(tb, func(fs vfs.FileSystem, at time.Duration) (done time.Duration, err error) {
					target, done, err = fs.Readlink(at, p)
					return done, err
				}); err != nil {
					t.Fatalf("%s: readlink %s: %v", tb.Kind, p, err)
				}
				lines = append(lines, fmt.Sprintf("%s -> %s", p, target))
				continue
			}
			var st vfs.Stat
			if err := sys(tb, func(fs vfs.FileSystem, at time.Duration) (done time.Duration, err error) {
				st, done, err = fs.Stat(at, p)
				return done, err
			}); err != nil {
				t.Fatalf("%s: stat %s: %v", tb.Kind, p, err)
			}
			lines = append(lines, fmt.Sprintf("%s mode=%o uid=%d size=%d nlink=%d", p, st.Mode, st.UID, st.Size, st.Nlink))
			if e.Mode.IsDir() {
				walk(p)
			}
		}
	}
	walk("/")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

type nsCall struct {
	what string
	run  func(fs vfs.FileSystem, at time.Duration) (time.Duration, error)
}

func mkdirCall(p string) nsCall {
	return nsCall{"mkdir " + clip(p), func(fs vfs.FileSystem, at time.Duration) (time.Duration, error) { return fs.Mkdir(at, p, 0o755) }}
}
func rmdirCall(p string) nsCall {
	return nsCall{"rmdir " + clip(p), func(fs vfs.FileSystem, at time.Duration) (time.Duration, error) { return fs.Rmdir(at, p) }}
}
func createCall(p string) nsCall {
	return nsCall{"create " + clip(p), func(fs vfs.FileSystem, at time.Duration) (time.Duration, error) {
		_, done, err := fs.Create(at, p, 0o644)
		return done, err
	}}
}
func writeCall(p string, n int) nsCall {
	return nsCall{fmt.Sprintf("write %s %d", clip(p), n), func(fs vfs.FileSystem, at time.Duration) (time.Duration, error) {
		f, done, err := fs.Open(at, p)
		if err != nil {
			return done, err
		}
		if _, done, err = f.WriteAt(done, 0, make([]byte, n)); err != nil {
			return done, err
		}
		if done, err = f.Close(done); err != nil {
			return done, err
		}
		return fs.Sync(done) // the size is the file system's, not a client's dirty page's
	}}
}
func symlinkCall(target, p string) nsCall {
	return nsCall{"symlink " + clip(target) + " " + clip(p), func(fs vfs.FileSystem, at time.Duration) (time.Duration, error) { return fs.Symlink(at, target, p) }}
}
func readlinkCall(p string) nsCall {
	return nsCall{"readlink " + clip(p), func(fs vfs.FileSystem, at time.Duration) (time.Duration, error) {
		_, done, err := fs.Readlink(at, p)
		return done, err
	}}
}
func linkCall(o, n string) nsCall {
	return nsCall{"link " + clip(o) + " " + clip(n), func(fs vfs.FileSystem, at time.Duration) (time.Duration, error) { return fs.Link(at, o, n) }}
}
func unlinkCall(p string) nsCall {
	return nsCall{"unlink " + clip(p), func(fs vfs.FileSystem, at time.Duration) (time.Duration, error) { return fs.Unlink(at, p) }}
}
func renameCall(o, n string) nsCall {
	return nsCall{"rename " + clip(o) + " " + clip(n), func(fs vfs.FileSystem, at time.Duration) (time.Duration, error) { return fs.Rename(at, o, n) }}
}
func readdirCall(p string) nsCall {
	return nsCall{"readdir " + clip(p), func(fs vfs.FileSystem, at time.Duration) (time.Duration, error) {
		_, done, err := fs.ReadDir(at, p)
		return done, err
	}}
}
func statCall(p string) nsCall {
	return nsCall{"stat " + clip(p), func(fs vfs.FileSystem, at time.Duration) (time.Duration, error) {
		_, done, err := fs.Stat(at, p)
		return done, err
	}}
}
func accessCall(p string) nsCall {
	return nsCall{"access " + clip(p), func(fs vfs.FileSystem, at time.Duration) (time.Duration, error) {
		return fs.Access(at, p, vfs.AccessRead)
	}}
}
func chmodCall(p string, m vfs.Mode) nsCall {
	return nsCall{fmt.Sprintf("chmod %s %o", clip(p), m), func(fs vfs.FileSystem, at time.Duration) (time.Duration, error) { return fs.Chmod(at, p, m) }}
}
func chownCall(p string, id uint32) nsCall {
	return nsCall{fmt.Sprintf("chown %s %d", clip(p), id), func(fs vfs.FileSystem, at time.Duration) (time.Duration, error) { return fs.Chown(at, p, id, id) }}
}
func utimesCall(p string) nsCall {
	return nsCall{"utimes " + clip(p), func(fs vfs.FileSystem, at time.Duration) (time.Duration, error) { return fs.Utimes(at, p, at, at) }}
}
func truncateCall(p string, size int64) nsCall {
	return nsCall{fmt.Sprintf("truncate %s %d", clip(p), size), func(fs vfs.FileSystem, at time.Duration) (time.Duration, error) { return fs.Truncate(at, p, size) }}
}

// clip keeps over-long hostile arguments out of failure messages.
func clip(s string) string {
	if len(s) > 24 {
		return fmt.Sprintf("%s...(%d bytes)", s[:12], len(s))
	}
	return fmt.Sprintf("%q", s)
}

// TestStacksRefuseHostileArguments: the arguments a careless or malicious
// caller gets wrong are refused with the same error on NFS v2/v3/v4 and on
// iSCSI, and a refused syscall leaves no trace in the file system: free
// blocks, free inodes and the tree are what they were. With a copy of the
// namespace code per stack, NFS accepted the bad symlink targets and sizes that
// iSCSI refused, and every stack let a directory be renamed into itself.
func TestStacksRefuseHostileArguments(t *testing.T) {
	long := func(n int) string { return strings.Repeat("n", n) }
	table := []struct {
		call nsCall
		want error
	}{
		{symlinkCall("", "/s"), vfs.ErrInvalid},
		{symlinkCall(long(5000), "/s"), vfs.ErrInvalid},
		{truncateCall("/d", 0), vfs.ErrIsDir},
		{truncateCall("/f", -1), vfs.ErrInvalid},
		{truncateCall("/f", 1<<62), vfs.ErrInvalid},
		{renameCall("/d", "/d/inside"), vfs.ErrInvalid},
		{mkdirCall("/" + long(256)), vfs.ErrNameTooLong},
		{createCall("/d/" + long(300)), vfs.ErrNameTooLong},
		{symlinkCall("t", "/"+long(256)), vfs.ErrNameTooLong},
		{linkCall("/f", "/"+long(256)), vfs.ErrNameTooLong},
		{renameCall("/f", "/"+long(300)), vfs.ErrNameTooLong},
		{mkdirCall("/d//x"), vfs.ErrInvalid},
		{mkdirCall("/d/"), vfs.ErrInvalid},
		{rmdirCall("/d/."), vfs.ErrInvalid},
		{unlinkCall("/d/.."), vfs.ErrInvalid},
		{renameCall("/f", "/d/."), vfs.ErrInvalid},
		{createCall("relative"), vfs.ErrInvalid},
		{mkdirCall(""), vfs.ErrInvalid},
		{rmdirCall("/"), vfs.ErrInvalid},
	}
	for _, kind := range testbed.AllKinds {
		tb := namespaceBed(t, kind)
		for _, c := range []nsCall{mkdirCall("/d"), createCall("/f"), writeCall("/f", 5000)} {
			if err := sys(tb, c.run); err != nil {
				t.Fatalf("%s: %s: %v", kind, c.what, err)
			}
		}
		before, freeB, freeI := treeOf(t, tb), ext3Of(tb).FreeBlocks(), ext3Of(tb).FreeInodes()
		for _, row := range table {
			if err := sys(tb, row.call.run); !errors.Is(err, row.want) {
				t.Errorf("%s: %s: %v, want %v", kind, row.call.what, err, row.want)
			}
		}
		if after := treeOf(t, tb); after != before {
			t.Errorf("%s: refused syscalls changed the tree:\n%s\nwas:\n%s", kind, after, before)
		}
		if b, i := ext3Of(tb).FreeBlocks(), ext3Of(tb).FreeInodes(); b != freeB || i != freeI {
			t.Errorf("%s: refused syscalls moved the free counts: %d/%d -> %d/%d", kind, freeB, freeI, b, i)
		}
	}
}

// TestRenameIntoOwnSubtreeIsRefused: unrefused, rename("/a", "/a/b/c") detaches
// /a into a cycle nothing can reach or free, on every stack.
func TestRenameIntoOwnSubtreeIsRefused(t *testing.T) {
	for _, kind := range testbed.AllKinds {
		tb := namespaceBed(t, kind)
		for _, c := range []nsCall{mkdirCall("/a"), mkdirCall("/a/b"), mkdirCall("/z")} {
			if err := sys(tb, c.run); err != nil {
				t.Fatalf("%s: %s: %v", kind, c.what, err)
			}
		}
		freeB, freeI := ext3Of(tb).FreeBlocks(), ext3Of(tb).FreeInodes()
		if err := sys(tb, renameCall("/a", "/a/b/c").run); !errors.Is(err, vfs.ErrInvalid) {
			t.Errorf("%s: rename /a /a/b/c: %v, want ErrInvalid", kind, err)
		}
		if err := sys(tb, statCall("/a/b").run); err != nil {
			t.Errorf("%s: /a/b after the refused rename: %v", kind, err)
		}
		if b, i := ext3Of(tb).FreeBlocks(), ext3Of(tb).FreeInodes(); b != freeB || i != freeI {
			t.Errorf("%s: the refused rename moved the free counts: %d/%d -> %d/%d", kind, freeB, freeI, b, i)
		}
		// Moving next to, out of and back under other directories still works.
		for _, c := range []nsCall{renameCall("/a/b", "/z/b"), renameCall("/a", "/z/b/a"), statCall("/z/b/a/..")} {
			if err := sys(tb, c.run); err != nil {
				t.Errorf("%s: %s: %v", kind, c.what, err)
			}
		}
	}
}

// nsGen draws the next syscall of TestStacksAgreeOnNamespace from the tree as
// it stands (the reference stack's rendering). A step has at most one thing
// wrong with it: which of two simultaneous mistakes is reported first is the
// client's choice (the NFS client looks names up before it sends the request
// that carries a bad target), and not what this test is about.
type nsGen struct {
	rng                     *rand.Rand
	names                   []string // what fresh entries are called
	dirs, files, links, all []string // the tree as it stands; dirs[0] is the root
}

func (g *nsGen) load(tree string) {
	g.dirs, g.files, g.links, g.all = []string{"/"}, nil, nil, nil
	for _, line := range strings.Split(tree, "\n") {
		if line == "" {
			continue
		}
		p, rest, _ := strings.Cut(line, " ")
		switch {
		case strings.HasPrefix(rest, "-> "):
			g.links = append(g.links, p)
		case strings.HasPrefix(rest, "mode=4"):
			g.dirs = append(g.dirs, p)
		default:
			g.files = append(g.files, p)
		}
		g.all = append(g.all, p)
	}
}

func (g *nsGen) pick(from []string) string { return from[g.rng.Intn(len(from))] }

// fresh returns a path that names nothing, in an existing directory: one of
// the few names, so that later steps collide with it, or a new one once the
// directories drawn are full.
func (g *nsGen) fresh() string {
	for try := 0; ; try++ {
		p := strings.TrimSuffix(g.pick(g.dirs), "/") + "/" + g.pick(g.names)
		if try > 16 {
			p += fmt.Sprint(try)
		}
		if !slices.Contains(g.all, p) {
			return p
		}
	}
}

// hostile returns a path no stack may accept, built on an existing directory.
func (g *nsGen) hostile() string {
	d := strings.TrimSuffix(g.pick(g.dirs), "/")
	switch g.rng.Intn(7) {
	case 0:
		return d + "/" + strings.Repeat("x", 256)
	case 1:
		return d + "/" + strings.Repeat("x", 300) + "/y"
	case 2:
		return d + "//y"
	case 3:
		return d + "/"
	case 4:
		return d + "/."
	case 5:
		return d + "/.."
	}
	return strings.TrimPrefix(d+"/y", "/")
}

func (g *nsGen) next() nsCall {
	r := g.rng
	switch { // every kind of operand exists before anything is drawn from it
	case len(g.dirs) == 1:
		return mkdirCall(g.fresh())
	case len(g.files) == 0:
		return createCall(g.fresh())
	case len(g.links) == 0:
		return symlinkCall(g.pick(g.all), g.fresh())
	}
	if r.Intn(12) == 0 { // a path that is wrong in itself, on any syscall
		p := g.hostile()
		return []nsCall{mkdirCall(p), rmdirCall(p), createCall(p), symlinkCall("t", p), linkCall(g.pick(g.files), p),
			unlinkCall(p), renameCall(g.pick(g.all), p), renameCall(p, g.fresh())}[r.Intn(8)]
	}
	// One well-formed operand of each kind; a step uses the wrong kind on
	// purpose about one time in four.
	wrong := r.Intn(4) == 0
	or := func(right, wrongKind []string) string {
		if wrong {
			return g.pick(wrongKind)
		}
		return g.pick(right)
	}
	with := func(list []string, more ...string) []string { return append(list[:len(list):len(list)], more...) }
	missing := "/" + g.pick(g.names) + "-missing/" + g.pick(g.names)
	if len(g.all) > 40 { // keep the tree small: remove rather than add
		return []nsCall{unlinkCall(g.pick(g.files)), unlinkCall(g.pick(g.links)), rmdirCall(g.pick(g.dirs[1:]))}[r.Intn(3)]
	}
	switch r.Intn(20) {
	case 0, 1:
		if wrong {
			return mkdirCall([]string{g.pick(g.all), g.pick(g.files) + "/x", missing}[r.Intn(3)])
		}
		return mkdirCall(g.fresh())
	case 2:
		return rmdirCall(or(g.dirs[1:], with(g.files, missing)))
	case 3, 4:
		return createCall(or(with(g.files, g.fresh(), g.fresh()), with(g.dirs[1:], missing)))
	case 5:
		return writeCall(g.pick(g.files), r.Intn(20000))
	case 6:
		switch {
		case !wrong:
			return symlinkCall([]string{g.pick(g.all), "../" + g.pick(g.names), g.pick(g.names), missing}[r.Intn(4)], g.fresh())
		case r.Intn(2) == 0:
			return symlinkCall([]string{"", strings.Repeat("t", 4097), strings.Repeat("t", 5000)}[r.Intn(3)], g.fresh())
		}
		return symlinkCall("t", g.pick(g.all))
	case 7:
		return readlinkCall(or(g.links, with(g.files, missing)))
	case 8, 9:
		if wrong {
			return []nsCall{linkCall(g.pick(g.files), g.pick(g.all)), linkCall(g.pick(g.dirs[1:]), g.fresh()), linkCall(missing, g.fresh())}[r.Intn(3)]
		}
		return linkCall(g.pick(g.files), g.fresh())
	case 10:
		return unlinkCall(or(with(g.files, g.links...), with(g.dirs[1:], missing)))
	case 11, 12, 13:
		// Any entry onto a fresh name or onto any other entry: replacements,
		// type mismatches, non-empty targets, moves across parents and into
		// the moved directory's own subtree all come up.
		if wrong && r.Intn(3) == 0 {
			return renameCall(missing, g.fresh())
		}
		return renameCall(g.pick(g.all), []string{g.fresh(), g.fresh(), g.pick(g.all)}[r.Intn(3)])
	case 14:
		return readdirCall(or(g.dirs, with(g.files, missing)))
	case 15:
		return []nsCall{statCall(or(g.all, []string{missing})), accessCall(or(g.all, []string{missing}))}[r.Intn(2)]
	case 16:
		return chmodCall(or(g.all, []string{missing}), vfs.Mode(r.Intn(0o1000)))
	case 17:
		return []nsCall{chownCall(or(g.all, []string{missing}), uint32(r.Intn(100))), utimesCall(or(g.all, []string{missing}))}[r.Intn(2)]
	default:
		if wrong {
			return []nsCall{truncateCall(g.pick(g.dirs), 0), truncateCall(g.pick(g.files), -1),
				truncateCall(g.pick(g.files), 1<<62), truncateCall(missing, 10)}[r.Intn(4)]
		}
		return truncateCall(g.pick(g.files), int64(r.Intn(30000)))
	}
}

// TestStacksAgreeOnNamespace runs one seeded random script of namespace
// syscalls, hostile arguments included, on NFS v2, v3, v4 and iSCSI, and
// after every step requires the same error class and the same visible tree on
// all four. The two stacks differ in where ext3 sits and in who resolves
// paths; what a syscall does to the tree may not depend on either. It runs
// under -short so the race job covers it.
func TestStacksAgreeOnNamespace(t *testing.T) {
	beds := make([]*testbed.Testbed, len(testbed.AllKinds))
	for i, kind := range testbed.AllKinds {
		beds[i] = namespaceBed(t, kind)
	}
	g := &nsGen{rng: rand.New(rand.NewSource(19)), names: []string{"a", "b", "c", "d", "e", "f"}}
	tree := ""
	failed := map[string]int{}
	for step := 0; step < 400; step++ {
		g.load(tree)
		call := g.next()
		class := ""
		for i, tb := range beds {
			c := errClass(sys(tb, call.run))
			if i == 0 {
				class = c
			} else if c != class {
				t.Fatalf("step %d, %s: %s says %q, %s says %q", step, call.what, beds[0].Kind, class, tb.Kind, c)
			}
		}
		failed[class]++
		for i, tb := range beds {
			got := treeOf(t, tb)
			if i == 0 {
				tree = got
			} else if got != tree {
				t.Fatalf("step %d, %s (%s): the trees differ\n%s:\n%s\n%s:\n%s", step, call.what, class, beds[0].Kind, tree, tb.Kind, got)
			}
		}
	}
	// The script must have been worth running: most steps succeed, and every
	// refusal the engine owns came up.
	t.Logf("outcomes: %v; final tree has %d entries", failed, len(g.all))
	for _, class := range []error{vfs.ErrNotExist, vfs.ErrExist, vfs.ErrNotDir, vfs.ErrIsDir, vfs.ErrNotEmpty, vfs.ErrInvalid, vfs.ErrNameTooLong} {
		if failed[class.Error()] == 0 {
			t.Errorf("the script never produced %q", class)
		}
	}
	if failed["<nil>"] < 200 {
		t.Errorf("only %d of 400 steps succeeded", failed["<nil>"])
	}
}
