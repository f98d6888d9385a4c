package testbed_test

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/testbed"
)

// After Close every filesystem is unmounted and every volume released, so a
// syscall on the dead cluster fails with an error: it cannot reach a block
// that went back to the pool and may already belong to the next cell. The
// blocks do go back, Close emits nothing and takes no virtual time, and a
// second Close is harmless.
func TestCloseFailsEverySyscall(t *testing.T) {
	for _, kind := range testbed.AllKinds {
		for _, pool := range []*blockdev.Pool{nil, {Poison: true}} {
			name := kind.Tag() + "/heap"
			if pool != nil {
				name = kind.Tag() + "/pool"
			}
			t.Run(name, func(t *testing.T) {
				cl, err := testbed.NewCluster(testbed.ClusterConfig{
					Config:  testbed.Config{Kind: kind, DeviceBlocks: 16384, Pool: pool},
					Clients: 2,
					Sharing: &testbed.SharingConfig{},
				})
				if err != nil {
					t.Fatal(err)
				}
				c := cl.Clients[0]
				mixed := make([]byte, 3*4096+100)
				for i := range mixed {
					mixed[i] = byte(i * 3)
				}
				if err := c.Mkdir("/d"); err != nil {
					t.Fatal(err)
				}
				if err := c.WriteFile("/d/f", mixed); err != nil {
					t.Fatal(err)
				}
				if err := c.Symlink("/d/f", "/l"); err != nil {
					t.Fatal(err)
				}
				if err := c.OpenShared(true); err != nil {
					t.Fatal(err)
				}
				block := make([]byte, 4096)
				copy(block, mixed)
				if err := c.SharedWriteAt(0, block); err != nil {
					t.Fatal(err)
				}
				held, err := c.Open("/d/f")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.ReadFileAt(held, 0, make([]byte, 8192)); err != nil {
					t.Fatal(err)
				}
				if err := cl.Drain(); err != nil {
					t.Fatal(err)
				}
				horizon, snap := cl.Horizon(), cl.Snap()

				cl.Close()

				if pool != nil && pool.Len() == 0 {
					t.Error("Close returned no block to the pool")
				}
				if cl.Horizon() != horizon || cl.Snap() != snap {
					t.Error("Close moved virtual time or a counter")
				}
				buf := make([]byte, 4096)
				for _, c := range cl.Clients {
					calls := map[string]func() error{
						"mkdir":        func() error { return c.Mkdir("/x") },
						"rmdir":        func() error { return c.Rmdir("/d") },
						"chdir":        func() error { return c.Chdir("/d") },
						"readdir":      func() error { _, err := c.ReadDir("/"); return err },
						"symlink":      func() error { return c.Symlink("/d/f", "/l2") },
						"readlink":     func() error { _, err := c.Readlink("/l"); return err },
						"link":         func() error { return c.Link("/d/f", "/h") },
						"unlink":       func() error { return c.Unlink("/d/f") },
						"rename":       func() error { return c.Rename("/d/f", "/d/g") },
						"stat":         func() error { _, err := c.Stat("/"); return err },
						"chmod":        func() error { return c.Chmod("/d/f", 0o600) },
						"chown":        func() error { return c.Chown("/d/f", 1, 1) },
						"utimes":       func() error { return c.Utimes("/d/f") },
						"truncate":     func() error { return c.Truncate("/d/f", 10) },
						"access":       func() error { return c.Access("/d/f") },
						"create":       func() error { _, err := c.Create("/new"); return err },
						"open":         func() error { _, err := c.Open("/d/f"); return err },
						"read":         func() error { _, err := c.ReadFileAt(held, 0, buf); return err },
						"write":        func() error { _, err := c.WriteFileAt(held, 0, buf); return err },
						"writefile":    func() error { return c.WriteFile("/w", buf) },
						"readfile":     func() error { _, err := c.ReadFile("/d/f"); return err },
						"shared-read":  func() error { return c.SharedReadAt(0, buf) },
						"shared-write": func() error { return c.SharedWriteAt(0, buf) },
					}
					for name, call := range calls {
						if err := call(); err == nil {
							t.Errorf("client %d: %s succeeded on a closed cluster", c.ID, name)
						}
					}
					// close(2) releases a handle and reaches no block; it may
					// succeed, it must not panic.
					_ = c.Close(held)
				}
				// The harness controls fail or do nothing; none panics.
				_ = cl.Drain()
				_ = cl.ColdCache()
				cl.Close()
			})
		}
	}
}
