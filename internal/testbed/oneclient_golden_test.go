package testbed_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/metrics"
	"repro/internal/testbed"
	"repro/internal/tracing"
	"repro/internal/workload"
)

// TestOneClientGolden pins what a single-client testbed does, on every
// valid {stack} x {wire model} x {loss} combination (iSCSI has no UDP):
// the paper's measurement protocol end to end — mount, sequential write,
// drain, cold cache, sequential read, random read, random write,
// PostMark, cold cache — with Snap() recorded after every step, plus the
// SHA-256 of the traced span stream and of the metrics stream. The
// metrics stream is hashed as sorted lines: the order of sources inside
// one sample batch is an assembly detail (docs/METRICS.md), everything
// else is behaviour. Regenerate with go test ./internal/testbed -run
// OneClientGolden -update.
//
// The whole protocol runs twice against the one golden: on the heap (no
// pool), and with every block owner on one pool that poisons each block as
// it is released, the testbeds closed one after another so that every cell
// but the first is built from the previous cell's poisoned blocks. A
// reference that outlives its owner, or a recycled block taken for a zero
// one, shows up as a drifted snapshot or hash, and a write that landed in one
// of the shared blocks of one byte repeated as a shared block that no longer
// reads as its byte.
func TestOneClientGolden(t *testing.T) {
	t.Run("heap", func(t *testing.T) { oneClientGolden(t, nil) })
	t.Run("poisoned-pool", func(t *testing.T) {
		oneClientGolden(t, &blockdev.Pool{Poison: true})
		sharedIntact(t)
	})
}

func oneClientGolden(t *testing.T, pool *blockdev.Pool) {
	var got bytes.Buffer
	for _, kind := range testbed.AllKinds {
		for _, tr := range []testbed.Transport{testbed.TransportFluid, testbed.TransportUDP, testbed.TransportTCP} {
			if kind == testbed.ISCSI && tr == testbed.TransportUDP {
				continue
			}
			for _, loss := range []float64{0, 0.01} {
				fmt.Fprintf(&got, "== %s/%s loss=%g\n", kind.Tag(), tr, loss)
				if err := oneClientScript(&got, kind, tr, loss, pool); err != nil {
					t.Fatalf("%s/%s loss=%g: %v", kind.Tag(), tr, loss, err)
				}
			}
		}
	}
	path := filepath.Join("testdata", "oneclient.golden")
	if *updateGolden && pool == nil {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("single-client behaviour drifted from golden at line %d:\n got: %s\nwant: %s\n"+
					"(regenerate with -update if the change is intended)", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("single-client golden length differs: %d vs %d lines", len(gl), len(wl))
	}
}

// oneClientScript runs the measurement protocol on one testbed and
// appends the per-step snapshots and the stream hashes to out.
func oneClientScript(out *bytes.Buffer, kind testbed.Kind, tr testbed.Transport, loss float64, pool *blockdev.Pool) error {
	var stream bytes.Buffer
	tracer := tracing.New(tracing.Config{})
	tb, err := testbed.New(testbed.Config{
		Kind:         kind,
		DeviceBlocks: 16384,
		Seed:         11,
		LossRate:     loss,
		Transport:    tr,
		Metrics:      metrics.NewRecorder(metrics.NewSink(&stream), metrics.Tags{"cmd": "oneclient"}),
		Tracer:       tracer,
		Pool:         pool,
	})
	if err != nil {
		return err
	}
	defer tb.Cluster.Close()
	src := workload.SeqRandConfig{FileSize: 2 << 20, ChunkSize: 4096, Seed: 11}
	pm, _, err := workload.PostMarkSteps(tb, workload.PostMarkConfig{
		Files: 50, Transactions: 300, MinSize: 500, MaxSize: 10000, Seed: 11,
	})
	if err != nil {
		return err
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"mount", func() error { return nil }},
		{"seq-write", func() error { return workload.RunSteps(workload.SequentialWriteSteps(tb, "/f", src)) }},
		{"drain", tb.Drain},
		{"cold-cache", tb.ColdCache},
		{"seq-read", func() error { return workload.RunSteps(workload.SequentialReadSteps(tb, "/f", src)) }},
		{"rand-read", func() error { return workload.RunSteps(workload.RandomReadSteps(tb, "/f", src)) }},
		{"rand-write", func() error { return workload.RunSteps(workload.RandomWriteSteps(tb, "/g", src)) }},
		{"postmark", func() error { return workload.RunSteps(pm) }},
		{"cold-cache", tb.ColdCache},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		tb.EmitSample()
		fmt.Fprintf(out, "%-10s %+v\n", s.name, tb.Snap())
	}
	var spans bytes.Buffer
	if err := tracing.WriteSpans(&spans, tracer); err != nil {
		return err
	}
	lines := bytes.Split(bytes.TrimSuffix(stream.Bytes(), []byte("\n")), []byte("\n"))
	sort.Slice(lines, func(i, j int) bool { return bytes.Compare(lines[i], lines[j]) < 0 })
	fmt.Fprintf(out, "spans      %d sha256 %x\n", len(tracer.Spans()), sha256.Sum256(spans.Bytes()))
	fmt.Fprintf(out, "metrics    %d lines, sorted sha256 %x\n", len(lines),
		sha256.Sum256(bytes.Join(lines, []byte("\n"))))
	return nil
}
