package iscsi

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/scsi"
	"repro/internal/simnet"
	"repro/internal/tcpsim"
)

// WireSize is the one PDU size the simulator charges: the 48-byte basic
// header segment plus the data segment padded to four bytes (RFC 3720).
func TestWireSize(t *testing.T) {
	for _, c := range []struct{ data, want int }{
		{0, 48}, {1, 52}, {3, 52}, {4, 52}, {5, 56}, {8192, 48 + 8192},
	} {
		if got := (&pdu{Data: make([]byte, c.data)}).wireSize(); got != c.want {
			t.Errorf("WireSize with %d data bytes = %d, want %d", c.data, got, c.want)
		}
		// A WRITE's Data-Out by reference is the same segment.
		if got := (&pdu{Blocks: blocksOf(make([]byte, c.data), 4096)}).wireSize(); got != c.want {
			t.Errorf("WireSize with %d data bytes in blocks = %d, want %d", c.data, got, c.want)
		}
	}
}

// wires is the table every command-path test runs over: the one initiator
// on the fluid datagram, on a single TCP connection and on a two-connection
// MC/S session.
var wires = []struct {
	name string
	dial func(*simnet.Network, *Target) *Initiator
}{
	{"fluid", func(n *simnet.Network, t *Target) *Initiator { return NewInitiator(n, t, nil) }},
	{"tcp", func(n *simnet.Network, t *Target) *Initiator { return NewSession(n, t, nil, 1, tcpsim.Config{}) }},
	{"mcs2", func(n *simnet.Network, t *Target) *Initiator { return NewSession(n, t, nil, 2, tcpsim.Config{}) }},
}

// onWires runs f once per wire against a logged-in initiator/target pair
// over an 8192-block in-memory device.
func onWires(t *testing.T, f func(t *testing.T, ini *Initiator, target *Target, net *simnet.Network, at time.Duration)) {
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			target := NewTarget("iqn.test:vol", blockdev.NewTestbedArray(8192), nil)
			net := simnet.New(simnet.DefaultLAN())
			ini := w.dial(net, target)
			at, err := ini.Login(0)
			if err != nil {
				t.Fatalf("login: %v", err)
			}
			f(t, ini, target, net, at)
		})
	}
}

func TestLoginDiscoversGeometry(t *testing.T) {
	onWires(t, func(t *testing.T, ini *Initiator, _ *Target, _ *simnet.Network, _ time.Duration) {
		var dev blockdev.Device = ini
		if dev.BlockSize() != 4096 || dev.NumBlocks() != 8192 {
			t.Fatalf("geometry %d x %d, want 8192 x 4096", dev.NumBlocks(), dev.BlockSize())
		}
	})
}

func TestReadWriteRoundTrip(t *testing.T) {
	onWires(t, func(t *testing.T, ini *Initiator, _ *Target, _ *simnet.Network, at time.Duration) {
		data := bytes.Repeat([]byte{0xAB, 0xCD}, 96*2048) // 96 blocks: two commands
		done, err := ini.WriteBlocks(at, 100, data)
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		got := make([]byte, len(data))
		done, err = ini.ReadBlocks(done, 100, got)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("data corrupted over iSCSI")
		}
		if done <= at {
			t.Fatal("virtual time did not advance")
		}
		if _, err := ini.flush(done); err != nil {
			t.Fatalf("flush: %v", err)
		}
	})
}

func TestOneCommandPerTransferChunk(t *testing.T) {
	onWires(t, func(t *testing.T, ini *Initiator, _ *Target, net *simnet.Network, at time.Duration) {
		before, cmds := net.Stats().Messages, ini.Counters()["commands"]
		// 128 blocks = 2 chunks of maxTransferBlocks (64), on one lane or two.
		if _, err := ini.ReadBlocks(at, 0, make([]byte, 128*4096)); err != nil {
			t.Fatalf("read: %v", err)
		}
		if got := net.Stats().Messages - before; got != 2 {
			t.Fatalf("128-block read used %d messages, want 2", got)
		}
		if got := ini.Counters()["commands"] - cmds; got != 2 {
			t.Fatalf("128-block read issued %d commands, want 2", got)
		}
	})
}

// A write run that is no cut of whole blocks is refused before a command is
// sent, even when its bytes add up to whole blocks.
func TestBrokenWriteRunSendsNothing(t *testing.T) {
	onWires(t, func(t *testing.T, ini *Initiator, _ *Target, net *simnet.Network, at time.Duration) {
		before := net.Stats()
		for _, run := range [][][]byte{
			{make([]byte, 2048), make([]byte, 6144)},
			{make([]byte, 4096), {}, make([]byte, 4096)},
			{make([]byte, 4096), make([]byte, 100)},
		} {
			if _, err := ini.WriteRun(at, 0, run); err == nil {
				t.Errorf("a run of %d pieces of %d.. bytes was written", len(run), len(run[0]))
			}
		}
		if after := net.Stats(); after != before {
			t.Fatalf("refused runs crossed the wire: %+v, then %+v", before, after)
		}
	})
}

func TestWriteBeforeLoginFails(t *testing.T) {
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			net := simnet.New(simnet.DefaultLAN())
			ini := w.dial(net, NewTarget("iqn.test:v", blockdev.NewTestbedArray(1024), nil))
			blk := make([]byte, 4096)
			_, rerr := ini.ReadBlocks(0, 0, blk)
			_, werr := ini.WriteBlocks(0, 0, blk)
			_, ferr := ini.flush(0)
			_, _, verr := ini.Reserve(0, scsi.TypeWriteExclusive)
			_, lerr := ini.Release(0)
			for op, err := range map[string]error{"read": rerr, "write": werr, "flush": ferr, "reserve": verr, "release": lerr} {
				if err == nil {
					t.Errorf("%s before login accepted", op)
				}
			}
			if got := net.Stats().Messages; got != 0 {
				t.Fatalf("refused commands still sent %d messages", got)
			}
		})
	}
}

func TestInjectedCommandFailure(t *testing.T) {
	onWires(t, func(t *testing.T, ini *Initiator, target *Target, _ *simnet.Network, at time.Duration) {
		target.FailCommands = true
		blk := make([]byte, 4096)
		_, rerr := ini.ReadBlocks(at, 0, blk)
		_, werr := ini.WriteBlocks(at, 0, blk)
		_, ferr := ini.flush(at)
		_, lerr := ini.Login(at)
		for op, err := range map[string]error{"read": rerr, "write": werr, "flush": ferr, "discovery": lerr} {
			// A CHECK CONDITION is a hard error, never a collapse.
			if err == nil || errors.Is(err, simnet.ErrTransportBroken) {
				t.Errorf("%s under injected failure: %v, want a hard error", op, err)
			}
		}
		target.FailCommands = false
		if _, err := ini.ReadBlocks(at+time.Millisecond, 0, blk); err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
	})
}

func TestTargetCrashRejectsUntilRestartAndRelogin(t *testing.T) {
	onWires(t, func(t *testing.T, ini *Initiator, target *Target, _ *simnet.Network, at time.Duration) {
		if !target.LoggedIn() {
			t.Fatal("rig not logged in")
		}
		target.Crash()
		if !target.down || target.LoggedIn() {
			t.Fatal("crash left target serving or logged in")
		}
		// Commands and logins both bounce while the machine is down.
		if _, err := ini.ReadBlocks(at, 0, make([]byte, 4096)); err == nil {
			t.Fatal("read against a crashed target succeeded")
		}
		if _, err := ini.Login(time.Second); err == nil {
			t.Fatal("login against a crashed target succeeded")
		}

		target.Restart()
		if target.down {
			t.Fatal("restart left target down")
		}
		// Session state died with the target: commands need a fresh login.
		req := &pdu{Opcode: opSCSICommand, Flags: flagFinal, ITT: 1, CDB: scsi.CDB{Op: scsi.OpTestUnitReady}.Encode()}
		if resp, _ := target.handleCommand(2*time.Second, req); resp.Status == scsi.StatusGood {
			t.Fatal("command accepted before re-login")
		}
		done, err := ini.Login(3 * time.Second)
		if err != nil {
			t.Fatalf("re-login after restart: %v", err)
		}
		if _, err := ini.ReadBlocks(done, 0, make([]byte, 4096)); err != nil {
			t.Fatalf("read after recovery: %v", err)
		}
	})
}

// Two initiators, each with its own target, share one LUN and one
// reservation table, as testbed.Cluster wires them.
func TestSharedLUNReservations(t *testing.T) {
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			shared, rsv := blockdev.NewTestbedArray(1024), scsi.NewReservations()
			var ini [2]*Initiator
			var at time.Duration
			for c := range ini {
				target := NewTarget("iqn.test:vol", blockdev.NewTestbedArray(1024), nil)
				target.SetShared(shared, rsv, c)
				ini[c] = w.dial(simnet.New(simnet.DefaultLAN()), target)
				done, err := ini[c].Login(0)
				if err != nil {
					t.Fatalf("login %d: %v", c, err)
				}
				at = max(at, done)
			}
			blk := bytes.Repeat([]byte{0x5A}, 4096)
			reserve := func(c int, rtype byte, want bool) {
				t.Helper()
				got, done, err := ini[c].Reserve(at, rtype)
				if err != nil || got != want {
					t.Fatalf("client %d reserve type %#x = %v, %v; want %v", c, rtype, got, err, want)
				}
				at = done
			}
			rw := func(c int, write bool, want error) {
				t.Helper()
				f := ini[c].SharedRead
				if write {
					f = ini[c].SharedWrite
				}
				done, err := f(at, 7, blk)
				if !errors.Is(err, want) || (want == nil && err != nil) {
					t.Fatalf("client %d shared rw (write=%v): %v, want %v", c, write, err, want)
				}
				at = done
			}

			reserve(0, scsi.TypeWriteExclusive, true)
			reserve(1, scsi.TypeWriteExclusive, false) // held by 0: poll again, not an error
			rw(0, true, nil)
			rw(1, true, ErrReservationConflict)
			got := make([]byte, 4096)
			if _, err := ini[1].SharedRead(at, 7, got); err != nil || !bytes.Equal(got, blk) {
				t.Fatalf("foreign read under a write-exclusive reservation: %v", err)
			}
			done, err := ini[0].Release(at)
			if err != nil {
				t.Fatalf("release: %v", err)
			}
			at = done
			reserve(1, scsi.TypeExclusiveAccess, true)
			rw(0, false, ErrReservationConflict)
			rw(0, true, ErrReservationConflict)
			rw(1, true, nil)
			if _, err := ini[0].SharedRead(at, 0, make([]byte, 100)); err == nil || errors.Is(err, ErrReservationConflict) {
				t.Fatalf("ragged shared extent: %v, want a hard error", err)
			}
		})
	}
}

// A command whose frames are lost for good is a collapse whatever the
// command: core.collapsed must see SYNCHRONIZE CACHE on a partitioned link
// or a dead session the way it sees READ and WRITE there.
func TestLostFlushIsTransportBroken(t *testing.T) {
	onWires(t, func(t *testing.T, ini *Initiator, _ *Target, net *simnet.Network, at time.Duration) {
		if ini.Conns() == 0 {
			// The retry ladder (0.2 s doubling, six retries) ends inside the outage.
			net.SetOutage(at, at+time.Minute)
		} else {
			for _, c := range ini.wire.conns() {
				c.Break()
			}
		}
		blk := make([]byte, 4096)
		_, rerr := ini.ReadBlocks(at, 0, blk)
		_, werr := ini.WriteBlocks(at, 0, blk)
		_, ferr := ini.flush(at)
		for op, err := range map[string]error{"read": rerr, "write": werr, "flush": ferr} {
			if !errors.Is(err, simnet.ErrTransportBroken) {
				t.Errorf("%s with every frame lost: %v, want simnet.ErrTransportBroken", op, err)
			}
		}
		if ini.Conns() == 0 && ini.Counters()["retries"] != 3*maxCommandRetries {
			t.Errorf("retries = %d, want %d", ini.Counters()["retries"], 3*maxCommandRetries)
		}
	})
}

// There is one command path: one type in the package implements
// blockdev.Device on both wires, and each command-set method is declared
// once, on it. A second endpoint type growing ReadBlocks, WriteBlocks or
// Reserve fails here.
func TestOneCommandPath(t *testing.T) {
	for _, w := range wires {
		var _ blockdev.Device = w.dial(simnet.New(simnet.DefaultLAN()), NewTarget("iqn.test:v", blockdev.NewTestbedArray(64), nil))
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	once := map[string]int{"Login": 0, "ReadBlocks": 0, "WriteBlocks": 0, "flush": 0, "BlockSize": 0, "NumBlocks": 0,
		"Reserve": 0, "Release": 0, "SharedRead": 0, "SharedWrite": 0}
	for _, f := range pkgs["iscsi"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			if _, tracked := once[fn.Name.Name]; !tracked {
				continue
			}
			once[fn.Name.Name]++
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); !ok || id.Name != "Initiator" {
				t.Errorf("%s is declared on %v: the command set belongs to Initiator alone", fn.Name.Name, recv)
			}
		}
	}
	for name, n := range once {
		if n != 1 {
			t.Errorf("%s declared %d times in internal/iscsi, want once", name, n)
		}
	}
}

// TestFluidCountersReportRetries: on a lossy fluid wire, every lost frame of
// a command is one retry of it (a frame the target never saw, or a response
// that never came back), and Counters reports as many as the network lost
// after login; the TCP wires recover below SCSI and report none.
func TestFluidCountersReportRetries(t *testing.T) {
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			cfg := simnet.DefaultLAN()
			cfg.LossRate, cfg.Seed = 0.05, 3
			net := simnet.New(cfg)
			ini := w.dial(net, NewTarget("iqn.test:vol", blockdev.NewTestbedArray(8192), nil))
			at, err := ini.Login(0)
			if err != nil {
				t.Fatalf("login: %v", err)
			}
			lost := net.Stats().Dropped
			data := make([]byte, 4096)
			for i := int64(0); i < 200; i++ {
				if at, err = ini.WriteBlocks(at, i, data); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			}
			lost = net.Stats().Dropped - lost
			retries, ok := ini.Counters()["retries"]
			if w.name != "fluid" {
				if ok {
					t.Fatalf("the %s wire reports %d retries", w.name, retries)
				}
				return
			}
			if lost == 0 || retries != lost {
				t.Fatalf("the network lost %d frames after login, the initiator reports %d retries", lost, retries)
			}
		})
	}
}
