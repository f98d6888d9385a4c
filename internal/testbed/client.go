package testbed

import (
	"time"

	"repro/internal/sim"
	"repro/internal/tracing"
	"repro/internal/vfs"
)

// Client is one simulated client machine: its own virtual clock and CPU, a
// mounted protocol stack, and the clock-advancing syscall surface the
// workloads drive. A Cluster holds N of them sharing the server-side
// hardware; a Testbed is a one-client cluster that embeds its only Client,
// so single-client workloads call the same methods unqualified.
type Client struct {
	// ID distinguishes clients within a cluster (0 in a single testbed).
	ID int
	// Clock is this client's timeline.
	Clock *sim.Clock
	// CPU is the client's processor (the paper's 1 GHz uniprocessor).
	CPU *sim.CPU
	// Stack is the mounted protocol stack.
	Stack Stack
	// FS is the client-visible filesystem (tracks Stack.FS across
	// cold-cache remounts).
	FS vfs.FileSystem
	// Env adds cwd handling on top of FS.
	Env *vfs.Env
	// Tracer, when non-nil, opens a root tracing.LayerSyscall span around
	// every clock-advancing syscall, under which the protocol layers nest
	// their own spans (see docs/TRACING.md).
	Tracer *tracing.Tracer

	// sharedF is the NFS handle on the cluster's shared file (see
	// OpenShared in sharing.go; iSCSI clients address the shared LUN
	// directly and leave it nil).
	sharedF vfs.File

	ops int64
}

// mount brings the client's stack up at the clock's current time.
func (c *Client) mount() error {
	done, err := c.Stack.Mount(c.Clock.Now())
	if err != nil {
		return err
	}
	c.Clock.AdvanceTo(done)
	c.syncFS()
	return nil
}

// syncFS refreshes FS/Env after operations that can replace the
// client-visible filesystem (cold-cache remounts).
func (c *Client) syncFS() {
	c.FS = c.Stack.FS()
	if c.Env == nil {
		c.Env = vfs.NewEnv(c.FS)
	} else {
		c.Env.FS = c.FS
	}
}

// Drain flushes this client's dirty state to stable server storage and
// advances its clock to quiescence.
func (c *Client) Drain() error {
	done, err := c.Stack.Drain(c.Clock.Now())
	if err != nil {
		return err
	}
	c.Clock.AdvanceTo(done)
	return nil
}

// Ops reports how many syscalls the client has issued (a scaling metric).
func (c *Client) Ops() int64 { return c.ops }

// Idle advances the client's clock without work (the warm-cache gap: long
// enough to expire the client attribute cache and trigger a journal
// commit interval, as elapsed wall-clock does between manual invocations).
func (c *Client) Idle(d time.Duration) { c.Clock.Advance(d) }

// IdleUntil advances the client's clock to t if t lies in the future (a
// no-op otherwise). It is the open-loop pacing primitive for externally
// timestamped drivers: a trace replayer waits for an operation's issue
// time without stretching work that already completed.
func (c *Client) IdleUntil(t time.Duration) { c.Clock.AdvanceTo(t) }

// Compute charges application CPU on the client and advances the clock
// (workloads use it to model their own processing, e.g. DB2's query work).
func (c *Client) Compute(d time.Duration) {
	c.Clock.AdvanceTo(c.CPU.Run(c.Clock.Now(), d))
}

// ---- clock-advancing syscall wrappers (workload surface) ----

// beginOp opens the root span for one syscall, tagged with the stack under
// test so a mixed trace file remains self-describing.
func (c *Client) beginOp(now time.Duration, op string) tracing.SpanRef {
	ref := c.Tracer.BeginOp(now, tracing.LayerSyscall, op, c.ID)
	c.Tracer.SetTag(ref, "stack", c.Stack.Kind().Tag())
	return ref
}

// run advances the clock to the completion of op.
func (c *Client) run(done time.Duration, err error) error {
	c.Clock.AdvanceTo(done)
	c.ops++
	return err
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string) error {
	now := c.Clock.Now()
	ref := c.beginOp(now, "mkdir")
	done, err := c.FS.Mkdir(now, c.Env.Abs(path), 0o755)
	c.Tracer.End(ref, done)
	return c.run(done, err)
}

// Rmdir removes a directory.
func (c *Client) Rmdir(path string) error {
	now := c.Clock.Now()
	ref := c.beginOp(now, "rmdir")
	done, err := c.FS.Rmdir(now, c.Env.Abs(path))
	c.Tracer.End(ref, done)
	return c.run(done, err)
}

// Chdir changes the working directory.
func (c *Client) Chdir(path string) error {
	now := c.Clock.Now()
	ref := c.beginOp(now, "chdir")
	done, err := c.Env.Chdir(now, path)
	c.Tracer.End(ref, done)
	return c.run(done, err)
}

// ReadDir lists a directory.
func (c *Client) ReadDir(path string) ([]vfs.DirEntry, error) {
	now := c.Clock.Now()
	ref := c.beginOp(now, "readdir")
	ents, done, err := c.FS.ReadDir(now, c.Env.Abs(path))
	c.Tracer.End(ref, done)
	return ents, c.run(done, err)
}

// Symlink creates a symbolic link.
func (c *Client) Symlink(target, path string) error {
	now := c.Clock.Now()
	ref := c.beginOp(now, "symlink")
	done, err := c.FS.Symlink(now, target, c.Env.Abs(path))
	c.Tracer.End(ref, done)
	return c.run(done, err)
}

// Readlink reads a symbolic link.
func (c *Client) Readlink(path string) (string, error) {
	now := c.Clock.Now()
	ref := c.beginOp(now, "readlink")
	t, done, err := c.FS.Readlink(now, c.Env.Abs(path))
	c.Tracer.End(ref, done)
	return t, c.run(done, err)
}

// Link creates a hard link.
func (c *Client) Link(oldpath, newpath string) error {
	now := c.Clock.Now()
	ref := c.beginOp(now, "link")
	done, err := c.FS.Link(now, c.Env.Abs(oldpath), c.Env.Abs(newpath))
	c.Tracer.End(ref, done)
	return c.run(done, err)
}

// Unlink removes a file.
func (c *Client) Unlink(path string) error {
	now := c.Clock.Now()
	ref := c.beginOp(now, "unlink")
	done, err := c.FS.Unlink(now, c.Env.Abs(path))
	c.Tracer.End(ref, done)
	return c.run(done, err)
}

// Rename moves a file or directory.
func (c *Client) Rename(oldpath, newpath string) error {
	now := c.Clock.Now()
	ref := c.beginOp(now, "rename")
	done, err := c.FS.Rename(now, c.Env.Abs(oldpath), c.Env.Abs(newpath))
	c.Tracer.End(ref, done)
	return c.run(done, err)
}

// Stat queries attributes.
func (c *Client) Stat(path string) (vfs.Stat, error) {
	now := c.Clock.Now()
	ref := c.beginOp(now, "stat")
	st, done, err := c.FS.Stat(now, c.Env.Abs(path))
	c.Tracer.End(ref, done)
	return st, c.run(done, err)
}

// Chmod changes permissions.
func (c *Client) Chmod(path string, mode vfs.Mode) error {
	now := c.Clock.Now()
	ref := c.beginOp(now, "chmod")
	done, err := c.FS.Chmod(now, c.Env.Abs(path), mode)
	c.Tracer.End(ref, done)
	return c.run(done, err)
}

// Chown changes ownership.
func (c *Client) Chown(path string, uid, gid uint32) error {
	now := c.Clock.Now()
	ref := c.beginOp(now, "chown")
	done, err := c.FS.Chown(now, c.Env.Abs(path), uid, gid)
	c.Tracer.End(ref, done)
	return c.run(done, err)
}

// Utimes sets timestamps.
func (c *Client) Utimes(path string) error {
	now := c.Clock.Now()
	ref := c.beginOp(now, "utimes")
	done, err := c.FS.Utimes(now, c.Env.Abs(path), now, now)
	c.Tracer.End(ref, done)
	return c.run(done, err)
}

// Truncate changes a file's size.
func (c *Client) Truncate(path string, size int64) error {
	now := c.Clock.Now()
	ref := c.beginOp(now, "truncate")
	done, err := c.FS.Truncate(now, c.Env.Abs(path), size)
	c.Tracer.End(ref, done)
	return c.run(done, err)
}

// Access checks permissions.
func (c *Client) Access(path string) error {
	now := c.Clock.Now()
	ref := c.beginOp(now, "access")
	done, err := c.FS.Access(now, c.Env.Abs(path), vfs.AccessRead)
	c.Tracer.End(ref, done)
	return c.run(done, err)
}

// Create makes a file (creat semantics).
func (c *Client) Create(path string) (vfs.File, error) {
	now := c.Clock.Now()
	ref := c.beginOp(now, "create")
	f, done, err := c.FS.Create(now, c.Env.Abs(path), 0o644)
	c.Tracer.End(ref, done)
	return f, c.run(done, err)
}

// Open opens an existing file.
func (c *Client) Open(path string) (vfs.File, error) {
	now := c.Clock.Now()
	ref := c.beginOp(now, "open")
	f, done, err := c.FS.Open(now, c.Env.Abs(path))
	c.Tracer.End(ref, done)
	return f, c.run(done, err)
}

// ReadFileAt reads from an open file, advancing the clock.
func (c *Client) ReadFileAt(f vfs.File, off int64, buf []byte) (int, error) {
	now := c.Clock.Now()
	ref := c.beginOp(now, "read")
	n, done, err := f.ReadAt(now, off, buf)
	c.Tracer.End(ref, done)
	return n, c.run(done, err)
}

// WriteFileAt writes to an open file, advancing the clock.
func (c *Client) WriteFileAt(f vfs.File, off int64, data []byte) (int, error) {
	now := c.Clock.Now()
	ref := c.beginOp(now, "write")
	n, done, err := f.WriteAt(now, off, data)
	c.Tracer.End(ref, done)
	return n, c.run(done, err)
}

// Close closes an open file.
func (c *Client) Close(f vfs.File) error {
	now := c.Clock.Now()
	ref := c.beginOp(now, "close")
	done, err := f.Close(now)
	c.Tracer.End(ref, done)
	return c.run(done, err)
}

// WriteFile creates path with the given content and closes it. The three
// syscalls trace as three root spans, not one composite.
func (c *Client) WriteFile(path string, data []byte) error {
	f, err := c.Create(path)
	if err != nil {
		return err
	}
	if _, err := c.WriteFileAt(f, 0, data); err != nil {
		return err
	}
	return c.Close(f)
}

// ReadFile opens path and reads it fully into a new buffer.
func (c *Client) ReadFile(path string) ([]byte, error) {
	return c.ReadFileInto(path, nil)
}

// ReadFileInto opens path and reads it fully into buf's storage, growing
// it only when the file does not fit, and returns the file's Size bytes.
// A caller reading in a loop passes back what the last call returned. On
// error it returns nil.
func (c *Client) ReadFileInto(path string, buf []byte) ([]byte, error) {
	st, err := c.Stat(path)
	if err != nil {
		return nil, err
	}
	f, err := c.Open(path)
	if err != nil {
		return nil, err
	}
	if buf == nil || int64(cap(buf)) < st.Size { // ReadFile returns []byte{}, not nil, for an empty file
		buf = make([]byte, st.Size)
	}
	buf = buf[:st.Size]
	if _, err := c.ReadFileAt(f, 0, buf); err != nil {
		return nil, err
	}
	return buf, c.Close(f)
}
