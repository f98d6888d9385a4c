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
	// stack is the mounted protocol stack.
	stack stack
	// FS is the client-visible filesystem (tracks the stack's FS across
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
	done, err := c.stack.Mount(c.Clock.Now())
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
	c.FS = c.stack.FS()
	if c.Env == nil {
		c.Env = vfs.NewEnv(c.FS)
	} else {
		c.Env.FS = c.FS
	}
}

// Drain flushes this client's dirty state to stable server storage and
// advances its clock to quiescence.
func (c *Client) Drain() error {
	done, err := c.stack.Drain(c.Clock.Now())
	if err != nil {
		return err
	}
	c.Clock.AdvanceTo(done)
	return nil
}

// Counters reports the client's protocol-level statistics (SunRPC on NFS,
// tcpsim under TransportTCP), cumulative across remounts.
func (c *Client) Counters() StackCounters { return c.stack.Counters() }

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

// frame is the one frame every clock-advancing syscall runs in: it opens
// the op's root span (tagged with the stack under test, so a mixed trace
// file remains self-describing), runs call at the clock's current time,
// ends the span at call's completion, advances the clock to it and counts
// the op. A new syscall is one call of frame.
func frame[T any](c *Client, op string, call func(now time.Duration) (T, time.Duration, error)) (T, error) {
	now := c.Clock.Now()
	ref := c.Tracer.BeginOp(now, tracing.LayerSyscall, op, c.ID)
	c.Tracer.SetTag(ref, "stack", c.stack.Kind().Tag())
	v, done, err := call(now)
	c.Tracer.End(ref, done)
	c.Clock.AdvanceTo(done)
	c.ops++
	return v, err
}

// do is frame for a syscall that returns only an error.
func (c *Client) do(op string, call func(now time.Duration) (time.Duration, error)) error {
	_, err := frame(c, op, func(now time.Duration) (struct{}, time.Duration, error) {
		done, err := call(now)
		return struct{}{}, done, err
	})
	return err
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string) error {
	return c.do("mkdir", func(now time.Duration) (time.Duration, error) {
		return c.FS.Mkdir(now, c.Env.Abs(path), 0o755)
	})
}

// Rmdir removes a directory.
func (c *Client) Rmdir(path string) error {
	return c.do("rmdir", func(now time.Duration) (time.Duration, error) {
		return c.FS.Rmdir(now, c.Env.Abs(path))
	})
}

// Chdir changes the working directory.
func (c *Client) Chdir(path string) error {
	return c.do("chdir", func(now time.Duration) (time.Duration, error) {
		return c.Env.Chdir(now, path)
	})
}

// ReadDir lists a directory.
func (c *Client) ReadDir(path string) ([]vfs.DirEntry, error) {
	return frame(c, "readdir", func(now time.Duration) ([]vfs.DirEntry, time.Duration, error) {
		return c.FS.ReadDir(now, c.Env.Abs(path))
	})
}

// Symlink creates a symbolic link.
func (c *Client) Symlink(target, path string) error {
	return c.do("symlink", func(now time.Duration) (time.Duration, error) {
		return c.FS.Symlink(now, target, c.Env.Abs(path))
	})
}

// Readlink reads a symbolic link.
func (c *Client) Readlink(path string) (string, error) {
	return frame(c, "readlink", func(now time.Duration) (string, time.Duration, error) {
		return c.FS.Readlink(now, c.Env.Abs(path))
	})
}

// Link creates a hard link.
func (c *Client) Link(oldpath, newpath string) error {
	return c.do("link", func(now time.Duration) (time.Duration, error) {
		return c.FS.Link(now, c.Env.Abs(oldpath), c.Env.Abs(newpath))
	})
}

// Unlink removes a file.
func (c *Client) Unlink(path string) error {
	return c.do("unlink", func(now time.Duration) (time.Duration, error) {
		return c.FS.Unlink(now, c.Env.Abs(path))
	})
}

// Rename moves a file or directory.
func (c *Client) Rename(oldpath, newpath string) error {
	return c.do("rename", func(now time.Duration) (time.Duration, error) {
		return c.FS.Rename(now, c.Env.Abs(oldpath), c.Env.Abs(newpath))
	})
}

// Stat queries attributes.
func (c *Client) Stat(path string) (vfs.Stat, error) {
	return frame(c, "stat", func(now time.Duration) (vfs.Stat, time.Duration, error) {
		return c.FS.Stat(now, c.Env.Abs(path))
	})
}

// Chmod changes permissions.
func (c *Client) Chmod(path string, mode vfs.Mode) error {
	return c.do("chmod", func(now time.Duration) (time.Duration, error) {
		return c.FS.Chmod(now, c.Env.Abs(path), mode)
	})
}

// Chown changes ownership.
func (c *Client) Chown(path string, uid, gid uint32) error {
	return c.do("chown", func(now time.Duration) (time.Duration, error) {
		return c.FS.Chown(now, c.Env.Abs(path), uid, gid)
	})
}

// Utimes sets timestamps.
func (c *Client) Utimes(path string) error {
	return c.do("utimes", func(now time.Duration) (time.Duration, error) {
		return c.FS.Utimes(now, c.Env.Abs(path), now, now)
	})
}

// Truncate changes a file's size.
func (c *Client) Truncate(path string, size int64) error {
	return c.do("truncate", func(now time.Duration) (time.Duration, error) {
		return c.FS.Truncate(now, c.Env.Abs(path), size)
	})
}

// Access checks permissions.
func (c *Client) Access(path string) error {
	return c.do("access", func(now time.Duration) (time.Duration, error) {
		return c.FS.Access(now, c.Env.Abs(path), vfs.AccessRead)
	})
}

// Create makes a file (creat semantics).
func (c *Client) Create(path string) (vfs.File, error) {
	return frame(c, "create", func(now time.Duration) (vfs.File, time.Duration, error) {
		return c.FS.Create(now, c.Env.Abs(path), 0o644)
	})
}

// Open opens an existing file.
func (c *Client) Open(path string) (vfs.File, error) {
	return frame(c, "open", func(now time.Duration) (vfs.File, time.Duration, error) {
		return c.FS.Open(now, c.Env.Abs(path))
	})
}

// ReadFileAt reads from an open file, advancing the clock.
func (c *Client) ReadFileAt(f vfs.File, off int64, buf []byte) (int, error) {
	return frame(c, "read", func(now time.Duration) (int, time.Duration, error) {
		return f.ReadAt(now, off, buf)
	})
}

// WriteFileAt writes to an open file, advancing the clock.
func (c *Client) WriteFileAt(f vfs.File, off int64, data []byte) (int, error) {
	return frame(c, "write", func(now time.Duration) (int, time.Duration, error) {
		return f.WriteAt(now, off, data)
	})
}

// Close closes an open file.
func (c *Client) Close(f vfs.File) error {
	return c.do("close", f.Close)
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
