package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/ext3"
	"repro/internal/iscsi"
	"repro/internal/metrics"
	"repro/internal/nfs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/tcpsim"
	"repro/internal/trace"
	"repro/internal/tracing"
	"repro/internal/vfs"
)

// Standalone layer calls: each layer is built from its exported
// constructors on real lower layers and driven by a fixed script, so a
// change to one layer moves one of these numbers whatever the workload.
// Every script runs as layerBatches batches; the metric is the median
// batch's host nanoseconds per unit of work.

const (
	layerBatches = 5
	block        = 4096
)

// script is one layer's fixed script: batch performs batch k and reports
// how many units (calls, blocks, segments) it covered; prep, when set,
// runs untimed before each batch.
type script struct {
	prep  func(k int) error
	batch func(k int) (units int, err error)
}

// layerBench is one standalone measurement; setup builds the layer.
type layerBench struct {
	metric string
	perMs  bool // report milliseconds per unit, not nanoseconds
	setup  func(seed int64) (script, error)
}

// runLayerBench measures one layer.
func runLayerBench(b layerBench, seed int64) (float64, error) {
	sc, err := b.setup(seed)
	if err != nil {
		return 0, fmt.Errorf("%s: setup: %w", b.metric, err)
	}
	per := make([]float64, 0, layerBatches)
	for k := 0; k < layerBatches; k++ {
		if sc.prep != nil {
			if err := sc.prep(k); err != nil {
				return 0, fmt.Errorf("%s: prep %d: %w", b.metric, k, err)
			}
		}
		start := time.Now()
		units, err := sc.batch(k)
		d := time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("%s: batch %d: %w", b.metric, k, err)
		}
		if units <= 0 {
			return 0, fmt.Errorf("%s: batch %d did no work", b.metric, k)
		}
		v := float64(d.Nanoseconds()) / float64(units)
		if b.perMs {
			v /= 1e6
		}
		per = append(per, v)
	}
	return median(per), nil
}

// calls runs fn for the n call indices of batch k.
func calls(k, n int, fn func(i int) error) (int, error) {
	for i := k * n; i < (k+1)*n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return n, nil
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}

// newExt3 formats and mounts a filesystem on the paper's RAID array.
func newExt3(blocks int64, opts ext3.Options) (*ext3.FS, time.Duration, error) {
	dev := blockdev.NewTestbedArray(blocks)
	at, err := ext3.Mkfs(0, dev, opts)
	if err != nil {
		return nil, 0, err
	}
	return ext3.Mount(at, dev, opts)
}

// ext3File creates one file on a fresh filesystem for the 4 KB scripts.
func ext3File() (*ext3.FS, vfs.File, time.Duration, error) {
	fs, at, err := newExt3(65536, ext3.Options{})
	if err != nil {
		return nil, nil, 0, err
	}
	f, at, err := fs.Create(at, "/data", 0o644)
	return fs, f, at, err
}

// nfsMount builds nfs.Client on sunrpc.Client on nfs.Server on ext3, as
// testbed's NFS stack does, on the fluid LAN.
func nfsMount(seed int64) (*nfs.Client, time.Duration, error) {
	cpu := sim.NewCPU(1.87)
	fs, at, err := newExt3(65536, ext3.Options{SyncMetadata: true})
	if err != nil {
		return nil, 0, err
	}
	cfg := simnet.DefaultLAN()
	cfg.Seed = seed
	rpc := sunrpc.NewClient(simnet.New(cfg), sunrpc.TCP)
	c := nfs.NewClient(nfs.V3, rpc, nfs.NewServer(fs, cpu), sim.NewCPU(1.0))
	at, err = c.Mount(at)
	return c, at, err
}

// iscsiLogin builds iscsi.Initiator on iscsi.Target on the RAID array.
func iscsiLogin(seed int64) (*iscsi.Initiator, time.Duration, error) {
	cfg := simnet.DefaultLAN()
	cfg.Seed = seed
	target := iscsi.NewTarget("iqn.2004.repro:bench", blockdev.NewTestbedArray(65536), sim.NewCPU(1.87))
	ini := iscsi.NewInitiator(simnet.New(cfg), target, sim.NewCPU(1.0))
	at, err := ini.Login(0)
	return ini, at, err
}

var layerBenches = []layerBench{
	{metric: "sim.step_ns", setup: func(int64) (script, error) {
		s := sim.NewScheduler()
		for i := 0; i < 10000; i++ {
			c := sim.NewClock()
			d := time.Duration(i%97+1) * time.Microsecond
			s.Spawn(c, func() (bool, error) {
				c.Advance(d)
				return true, nil
			})
		}
		return script{batch: func(k int) (int, error) {
			return calls(k, 200000, func(int) error {
				_, err := s.Step()
				return err
			})
		}}, nil
	}},
	{metric: "blockdev.store_write_ns", setup: func(int64) (script, error) {
		st := blockdev.NewStore(1<<20, block)
		data := pattern(block)
		return script{batch: func(k int) (int, error) {
			// Fresh blocks every call: the first write of a block is the
			// allocating one.
			return calls(k, 16384, func(i int) error { return st.WriteAt(int64(i), data) })
		}}, nil
	}},
	{metric: "blockdev.store_read_ns", setup: func(int64) (script, error) {
		st := blockdev.NewStore(1<<20, block)
		data := pattern(block)
		for i := 0; i < 16384; i++ {
			if err := st.WriteAt(int64(i), data); err != nil {
				return script{}, err
			}
		}
		buf := make([]byte, block)
		return script{batch: func(k int) (int, error) {
			return calls(k, 65536, func(i int) error { return st.ReadAt(int64(i%16384), buf) })
		}}, nil
	}},
	{metric: "blockdev.local_write_ns", setup: func(int64) (script, error) {
		dev := blockdev.NewTestbedArray(1 << 20)
		data := pattern(block)
		var at time.Duration
		return script{batch: func(k int) (int, error) {
			return calls(k, 16384, func(i int) (err error) {
				at, err = dev.WriteBlocks(at, int64(i), data)
				return err
			})
		}}, nil
	}},
	{metric: "ext3.create_ns", setup: func(int64) (script, error) {
		fs, at, err := newExt3(65536, ext3.Options{})
		if err != nil {
			return script{}, err
		}
		return script{batch: func(k int) (int, error) {
			dir := fmt.Sprintf("/d%d", k)
			if at, err = fs.Mkdir(at, dir, 0o755); err != nil {
				return 0, err
			}
			return calls(k, 2000, func(i int) error {
				f, done, err := fs.Create(at, fmt.Sprintf("%s/f%d", dir, i), 0o644)
				if err != nil {
					return err
				}
				at, err = f.Close(done)
				return err
			})
		}}, nil
	}},
	{metric: "ext3.write4k_ns", setup: func(int64) (script, error) {
		_, f, at, err := ext3File()
		if err != nil {
			return script{}, err
		}
		data := pattern(block)
		return script{batch: func(k int) (int, error) {
			return calls(k, 4096, func(i int) (err error) {
				_, at, err = f.WriteAt(at, int64(i)*block, data)
				return err
			})
		}}, nil
	}},
	{metric: "ext3.read4k_ns", setup: func(int64) (script, error) {
		_, f, at, err := ext3File()
		if err != nil {
			return script{}, err
		}
		data := pattern(block)
		for i := 0; i < 4096; i++ {
			if _, at, err = f.WriteAt(at, int64(i)*block, data); err != nil {
				return script{}, err
			}
		}
		buf := make([]byte, block)
		return script{batch: func(k int) (int, error) {
			return calls(k, 16384, func(i int) (err error) {
				_, at, err = f.ReadAt(at, int64(i%4096)*block, buf)
				return err
			})
		}}, nil
	}},
	{metric: "ext3.sync_ns_per_block", setup: func(int64) (script, error) {
		fs, f, at, err := ext3File()
		if err != nil {
			return script{}, err
		}
		data := pattern(block)
		const dirty = 2048
		return script{
			prep: func(k int) error {
				for i := k * dirty; i < (k+1)*dirty; i++ {
					if _, at, err = f.WriteAt(at, int64(i)*block, data); err != nil {
						return err
					}
				}
				return nil
			},
			batch: func(int) (int, error) {
				at, err = fs.Sync(at)
				return dirty, err
			},
		}, nil
	}},
	{metric: "iscsi.write_cmd_ns", setup: func(seed int64) (script, error) {
		ini, at, err := iscsiLogin(seed)
		if err != nil {
			return script{}, err
		}
		data := pattern(block)
		return script{batch: func(k int) (int, error) {
			return calls(k, 8192, func(i int) (err error) {
				at, err = ini.WriteBlocks(at, int64(i), data)
				return err
			})
		}}, nil
	}},
	{metric: "iscsi.read_cmd_ns", setup: func(seed int64) (script, error) {
		ini, at, err := iscsiLogin(seed)
		if err != nil {
			return script{}, err
		}
		buf := make([]byte, block)
		return script{batch: func(k int) (int, error) {
			return calls(k, 8192, func(i int) (err error) {
				at, err = ini.ReadBlocks(at, int64(i%8192), buf)
				return err
			})
		}}, nil
	}},
	{metric: "nfs.write4k_ns", setup: func(seed int64) (script, error) {
		c, at, err := nfsMount(seed)
		if err != nil {
			return script{}, err
		}
		f, at, err := c.Create(at, "/data", 0o644)
		if err != nil {
			return script{}, err
		}
		data := pattern(block)
		return script{batch: func(k int) (int, error) {
			return calls(k, 2048, func(i int) (err error) {
				_, at, err = f.WriteAt(at, int64(i)*block, data)
				return err
			})
		}}, nil
	}},
	{metric: "nfs.read4k_ns", setup: func(seed int64) (script, error) {
		c, at, err := nfsMount(seed)
		if err != nil {
			return script{}, err
		}
		f, at, err := c.Create(at, "/data", 0o644)
		if err != nil {
			return script{}, err
		}
		data := pattern(block)
		for i := 0; i < 2048; i++ {
			if _, at, err = f.WriteAt(at, int64(i)*block, data); err != nil {
				return script{}, err
			}
		}
		if at, err = c.Sync(at); err != nil {
			return script{}, err
		}
		buf := make([]byte, block)
		return script{batch: func(k int) (int, error) {
			// Dropping the client's caches makes every batch read the
			// file over the wire again.
			c.DropCaches()
			f, done, err := c.Open(at, "/data")
			if err != nil {
				return 0, err
			}
			at = done
			return calls(k, 2048, func(i int) (err error) {
				_, at, err = f.ReadAt(at, int64(i%2048)*block, buf)
				return err
			})
		}}, nil
	}},
	{metric: "nfs.getattr_ns", setup: func(seed int64) (script, error) {
		c, at, err := nfsMount(seed)
		if err != nil {
			return script{}, err
		}
		f, at, err := c.Create(at, "/data", 0o644)
		if err != nil {
			return script{}, err
		}
		if at, err = f.Close(at); err != nil {
			return script{}, err
		}
		return script{batch: func(k int) (int, error) {
			return calls(k, 30000, func(int) (err error) {
				// Past the attribute-cache timeout, so each stat is a
				// GETATTR on the wire.
				at += 2 * nfs.AttrTimeout
				_, at, err = c.Stat(at, "/data")
				return err
			})
		}}, nil
	}},
	{metric: "sunrpc.call_ns", setup: func(seed int64) (script, error) {
		cfg := simnet.DefaultLAN()
		cfg.Seed = seed
		rpc := sunrpc.NewClient(simnet.New(cfg), sunrpc.UDP)
		var at time.Duration
		serve := func(arrive time.Duration) (int, time.Duration) { return 128, arrive + 10*time.Microsecond }
		return script{batch: func(k int) (int, error) {
			return calls(k, 400000, func(int) (err error) {
				at, err = rpc.Call(at, 128, serve)
				return err
			})
		}}, nil
	}},
	{metric: "simnet.roundtrip_ns", setup: func(seed int64) (script, error) {
		cfg := simnet.DefaultLAN()
		cfg.Seed = seed
		net := simnet.New(cfg)
		var at time.Duration
		serve := func(arrive time.Duration) time.Duration { return arrive + 10*time.Microsecond }
		return script{batch: func(k int) (int, error) {
			return calls(k, 1000000, func(int) error {
				done, ok := net.RoundTrip(at, 128, 1024, serve)
				if !ok {
					return fmt.Errorf("frame lost on a lossless link")
				}
				at = done
				return nil
			})
		}}, nil
	}},
	{metric: "tcpsim.segment_ns", setup: func(seed int64) (script, error) {
		cfg := simnet.DefaultLAN()
		cfg.LossRate = 0.01
		cfg.Seed = seed
		conn := tcpsim.NewConn(simnet.New(cfg), tcpsim.Config{DisableNagle: true})
		at, err := conn.Connect(0)
		if err != nil {
			return script{}, err
		}
		return script{batch: func(int) (int, error) {
			before := conn.Stats().Segments
			for i := 0; i < 512; i++ {
				done, ok := conn.Transfer(at, 1<<20, simnet.ClientToServer)
				if !ok {
					return 0, fmt.Errorf("connection died at 1%% loss")
				}
				at = done
			}
			return int(conn.Stats().Segments - before), nil
		}}, nil
	}},
	{metric: "metrics.event_ns", setup: func(int64) (script, error) {
		var buf bytes.Buffer
		sink := metrics.NewSink(&buf)
		rec := metrics.NewRecorder(sink, metrics.Tags{"cmd": "hostbench", "stack": "nfsv3"})
		counters := map[string]int64{"messages": 0, "frames": 0, "bytes_sent": 0, "bytes_recv": 0}
		rec.Register(metrics.SubsysNet, metrics.Tags{"client": "0"}, func() map[string]int64 {
			counters["messages"]++
			counters["frames"] += 2
			counters["bytes_sent"] += 128
			counters["bytes_recv"] += 4096
			return counters
		})
		return script{batch: func(k int) (int, error) {
			buf.Reset()
			n, _ := calls(k, 20000, func(i int) error {
				rec.Sample(time.Duration(i) * time.Microsecond)
				return nil
			})
			return n, sink.Err()
		}}, nil
	}},
	{metric: "tracing.span_ns", setup: func(int64) (script, error) {
		return script{batch: func(k int) (int, error) {
			// A fresh tracer per batch keeps the committed-span slice
			// from growing across batches.
			tr := tracing.New(tracing.Config{})
			const perOp = 4
			n, _ := calls(k, 25000, func(i int) error {
				at := time.Duration(i) * time.Microsecond
				root := tr.BeginOp(at, tracing.LayerSyscall, "read", 0)
				rpc := tr.Begin(at, tracing.LayerRPC, "call")
				tr.Record(at, at+1, tracing.LayerLink, "frame")
				disk := tr.Begin(at+1, tracing.LayerDisk, "read")
				tr.End(disk, at+2)
				tr.End(rpc, at+3)
				tr.End(root, at+4)
				return nil
			})
			if got := len(tr.Spans()); got != n*perOp {
				return 0, fmt.Errorf("tracer kept %d spans, want %d", got, n*perOp)
			}
			return n * perOp, nil
		}}, nil
	}},
	{metric: "trace.synthesize_ms", perMs: true, setup: func(seed int64) (script, error) {
		prof := traceProfiles(seed)[0]
		return script{batch: func(int) (int, error) {
			if len(trace.Synthesize(prof)) == 0 {
				return 0, fmt.Errorf("empty trace")
			}
			return 1, nil
		}}, nil
	}},
	{metric: "trace.analyze_ms", perMs: true, setup: func(seed int64) (script, error) {
		recs := trace.Synthesize(traceProfiles(seed)[0])
		return script{batch: func(int) (int, error) {
			pts := trace.AnalyzeSharing(recs, []time.Duration{16 * time.Second, 256 * time.Second})
			if len(pts) != 2 {
				return 0, fmt.Errorf("%d sharing points, want 2", len(pts))
			}
			return 1, nil
		}}, nil
	}},
}
