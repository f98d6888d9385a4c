package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/testbed"
	"repro/internal/tracing"
)

// TestContendSweepShape runs all three contention workloads on an NFS
// and an iSCSI stack and checks the acceptance bar: every cell makes
// progress, exclusive-lock workloads show real contention (denied
// polls on NFS, reservation conflicts on iSCSI), and the rendered table
// names every workload.
func TestContendSweepShape(t *testing.T) {
	cfg := ContendConfig{
		Stacks:     []Stack{NFSv3, ISCSI},
		Transports: []testbed.Transport{testbed.TransportFluid},
		Clients:    3,
		Iters:      20,
		Seed:       5,
	}
	cells, err := RunContention(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ContendWorkloads) * 2; len(cells) != want {
		t.Fatalf("%d cells, want %d", len(cells), want)
	}
	for _, c := range cells {
		name := c.Workload + "/" + c.label()
		if c.Ops != int64(cfg.Iters)*int64(cfg.Clients) {
			t.Errorf("%s: ops=%d want %d", name, c.Ops, int64(cfg.Iters)*int64(cfg.Clients))
		}
		if c.Rate <= 0 || c.Elapsed <= 0 {
			t.Errorf("%s: no progress: rate=%.1f elapsed=%v", name, c.Rate, c.Elapsed)
		}
		if c.Grants <= 0 {
			t.Errorf("%s: no lock grants", name)
		}
		// Multiple writers on one lock must actually collide.
		if c.Workload != ContendRW && c.Denials == 0 {
			t.Errorf("%s: exclusive contention produced no denials", name)
		}
		if c.Workload != ContendRW && c.WaitTotal == 0 {
			t.Errorf("%s: denied clients accumulated no wait", name)
		}
	}

	var buf bytes.Buffer
	RenderContention(&buf, cells)
	out := buf.String()
	for _, wl := range ContendWorkloads {
		if !strings.Contains(out, wl) {
			t.Errorf("render omits workload %s:\n%s", wl, out)
		}
	}
}

// TestContendShareAsymmetry pins the protocol asymmetry the sweep
// exists to show: in the reader/writer workload NFS readers pay a LOCK
// RPC each (shared locks are real), while iSCSI readers lock nothing —
// the only reservation traffic is the writer's.
func TestContendShareAsymmetry(t *testing.T) {
	run := func(stack Stack) ContendCell {
		cells, err := RunContention(ContendConfig{
			Workloads:  []string{ContendRW},
			Stacks:     []Stack{stack},
			Transports: []testbed.Transport{testbed.TransportFluid},
			Clients:    3,
			Iters:      10,
			Seed:       7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cells[0]
	}
	nfs, scsi := run(NFSv3), run(ISCSI)
	// NFS: writer + 2 readers each lock per iteration = 3 grants/iter.
	if nfs.Grants < 3*10 {
		t.Errorf("nfs reader/writer grants=%d, want >= 30 (shared locks are RPCs)", nfs.Grants)
	}
	// iSCSI: only the writer reserves; readers are local no-ops.
	if scsi.Grants != 10 {
		t.Errorf("iscsi reader/writer reserves=%d, want exactly the writer's 10", scsi.Grants)
	}
}

// TestContendDeterministicStream reruns contention cells and demands
// byte-identical experiment=contend metric streams and span traces. In
// short mode it covers ping-pong on two stacks over the fluid wire; the
// full run covers ping-pong and shared-append across all four stacks
// over fluid and TCP.
func TestContendDeterministicStream(t *testing.T) {
	cfg := ContendConfig{
		Workloads:  []string{ContendPingPong, ContendAppend},
		Transports: []testbed.Transport{testbed.TransportFluid, testbed.TransportTCP},
		Clients:    3,
		Iters:      10,
		Seed:       9,
	}
	if testing.Short() {
		cfg.Workloads = []string{ContendPingPong}
		cfg.Stacks = []Stack{NFSv3, ISCSI}
		cfg.Transports = []testbed.Transport{testbed.TransportFluid}
	}
	run := func() ([]byte, *tracing.Tracer) {
		var buf bytes.Buffer
		c := cfg
		c.Metrics = metrics.NewRecorder(metrics.NewSink(&buf), metrics.Tags{"cmd": "contend"})
		c.Tracer = tracing.New(tracing.Config{})
		if _, err := RunContention(c); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), c.Tracer
	}
	a, aTracer := run()
	b, bTracer := run()
	aSpans, bSpans := aTracer.Spans(), bTracer.Spans()
	if !bytes.Equal(a, b) {
		t.Fatalf("contend telemetry not deterministic: %d vs %d bytes", len(a), len(b))
	}
	if !bytes.Contains(a, []byte(`"experiment":"contend"`)) {
		t.Fatalf("stream missing experiment=contend tag")
	}
	if !bytes.Contains(a, []byte(`"subsys":"lock"`)) {
		t.Fatalf("stream missing subsys=lock samples")
	}
	if len(aSpans) == 0 || len(aSpans) != len(bSpans) {
		t.Fatalf("trace not deterministic: %d vs %d spans", len(aSpans), len(bSpans))
	}
	for i := range aSpans {
		as, bs := aSpans[i], bSpans[i]
		if as.Layer != bs.Layer || aTracer.Op(as) != bTracer.Op(bs) || as.Start != bs.Start || as.End != bs.End {
			t.Fatalf("span %d differs: %+v vs %+v", i, as, bs)
		}
	}
	var lockSpans int
	for _, s := range aSpans {
		if s.Layer == tracing.LayerLock {
			lockSpans++
		}
	}
	if lockSpans == 0 {
		t.Fatalf("no %s-layer spans recorded", tracing.LayerLock)
	}
}
