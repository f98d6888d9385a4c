package core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/netqueue"
	"repro/internal/testbed"
)

var update = flag.Bool("update", false, "rewrite the sweep goldens under testdata/")

// TestSweepGoldens pins every sweep's behaviour at a tiny config: the
// rendered table byte for byte, plus the SHA-256 of the JSONL metrics
// stream the sweep emitted. The cluster sweeps hash the stream as
// emitted; RunTransport runs on a single-client testbed, whose sample
// batches may order their sources differently from one assembly to
// another, so its stream is hashed as sorted lines. Regenerate with
// go test ./internal/core -run SweepGoldens -update.
func TestSweepGoldens(t *testing.T) { sweepGoldens(t, nil) }

// TestSweepGoldensOnRecycledBlocks runs the same sweeps against the same
// goldens with a planted pool that poisons every block as it is released
// (production sweeps make their own, unpoisoned): each cell but the first is
// built from blocks earlier cells closed, crashed or cold-cached away, so a
// reference that outlived its owner, or a recycled block taken for a zero
// one, drifts a table or a stream hash.
func TestSweepGoldensOnRecycledBlocks(t *testing.T) {
	sweepGoldens(t, &blockdev.Pool{Poison: true})
}

func sweepGoldens(t *testing.T, pool *blockdev.Pool) {
	fluidTCP := []testbed.Transport{testbed.TransportFluid, testbed.TransportTCP}
	pair := []Stack{NFSv3, ISCSI}
	sweeps := []struct {
		name   string
		sorted bool
		run    func(rec *metrics.Recorder, out *bytes.Buffer) error
	}{
		{"scale", false, func(rec *metrics.Recorder, out *bytes.Buffer) error {
			// Count 4 exceeds Foreground, so it runs hybrid (calibration
			// cluster plus a fluid cohort); seq-read takes the cluster
			// cold-cache path.
			cells, err := RunScaling(ScaleConfig{
				Counts:               []int{1, 2, 4},
				Workloads:            []string{"seq-write", "seq-read", "postmark"},
				Stacks:               pair,
				FileSize:             256 << 10,
				PostMarkFiles:        10,
				PostMarkTransactions: 40,
				DeviceBlocks:         8192,
				Foreground:           2,
				Seed:                 3,
				Metrics:              rec,
				pool:                 pool,
			})
			RenderScaling(out, cells)
			return err
		}},
		{"transport", true, func(rec *metrics.Recorder, out *bytes.Buffer) error {
			cells, err := RunTransport(TransportConfig{
				Workloads: []string{"seq-read", "rand-write"},
				RTTs:      []time.Duration{200 * time.Microsecond},
				Conns:     []int{1, 2},
				FileSize:  256 << 10,
				Seed:      3,
				Metrics:   rec,
				pool:      pool,
			})
			RenderTransport(out, cells)
			return err
		}},
		{"replay", false, func(rec *metrics.Recorder, out *bytes.Buffer) error {
			cells, err := RunReplay(ReplayConfig{
				Profiles: []string{"eecs"},
				Stacks:   pair,
				Transports: []testbed.Transport{testbed.TransportFluid,
					testbed.TransportUDP, testbed.TransportTCP},
				Clients:      2,
				MaxOps:       60,
				DirMod:       16,
				Conns:        2,
				DeviceBlocks: 8192,
				Seed:         3,
				Metrics:      rec,
				pool:         pool,
			})
			RenderReplay(out, cells)
			return err
		}},
		{"wan", false, func(rec *metrics.Recorder, out *bytes.Buffer) error {
			cells, err := RunWAN(WANConfig{
				Counts:      []int{1, 3},
				Stacks:      pair,
				Workloads:   []string{"seq-write", "rand-read"},
				Transports:  fluidTCP,
				Capacities:  []int64{4 << 20},
				Disciplines: []netqueue.Discipline{netqueue.DropTail},
				Mixes:       []string{"straggler"},
				Conns:       2,
				FileSize:    128 << 10,
				Seed:        5,
				Health:      &health.Config{},
				Metrics:     rec,
				pool:        pool,
			})
			if err != nil {
				return err
			}
			// The starved pipe of TestWANCollapseIsACell: one cell that
			// collapses inside the measured window.
			collapsed, err := RunWAN(WANConfig{
				Counts:      []int{8},
				Stacks:      []Stack{NFSv3},
				Workloads:   []string{"seq-write"},
				Transports:  []testbed.Transport{testbed.TransportTCP},
				Capacities:  []int64{500_000},
				Disciplines: []netqueue.Discipline{netqueue.DropTail},
				Mixes:       []string{"lan"},
				QueueBytes:  8 << 10,
				FileSize:    256 << 10,
				Seed:        5,
				Metrics:     rec,
				pool:        pool,
			})
			if err == nil && (len(collapsed) != 1 || !collapsed[0].Collapsed) {
				err = fmt.Errorf("starved-pipe cell did not collapse: %+v", collapsed)
			}
			RenderWAN(out, append(cells, collapsed...))
			return err
		}},
		{"fault", false, func(rec *metrics.Recorder, out *bytes.Buffer) error {
			cells, err := RunFault(FaultConfig{
				Families:   []fault.Family{fault.ServerCrash, fault.LinkFlap},
				Stacks:     pair,
				Transports: fluidTCP,
				Conns:      2,
				Seed:       5,
				Health:     &health.Config{},
				Metrics:    rec,
				pool:       pool,
			})
			RenderFault(out, cells)
			return err
		}},
		{"contend", false, func(rec *metrics.Recorder, out *bytes.Buffer) error {
			cells, err := RunContention(ContendConfig{
				Workloads:  []string{ContendPingPong, ContendRW},
				Stacks:     pair,
				Transports: fluidTCP,
				Clients:    3,
				Iters:      10,
				Conns:      2,
				Seed:       5,
				Metrics:    rec,
				pool:       pool,
			})
			RenderContention(out, cells)
			return err
		}},
		{"health", false, func(rec *metrics.Recorder, out *bytes.Buffer) error {
			cells, err := RunHealth(HealthConfig{
				Families:   []fault.Family{fault.ServerCrash, fault.DiskFail},
				Stacks:     pair,
				Transports: fluidTCP,
				Conns:      2,
				Seed:       5,
				Metrics:    rec,
				pool:       pool,
			})
			RenderHealth(out, cells)
			return err
		}},
	}
	for _, s := range sweeps {
		s := s
		t.Run(s.name, func(t *testing.T) {
			var stream, got bytes.Buffer
			rec := metrics.NewRecorder(metrics.NewSink(&stream), metrics.Tags{"cmd": s.name})
			var table bytes.Buffer
			if err := s.run(rec, &table); err != nil {
				t.Fatal(err)
			}
			if stream.Len() == 0 || table.Len() == 0 {
				t.Fatalf("empty output: %d stream bytes, %d table bytes", stream.Len(), table.Len())
			}
			raw := stream.Bytes()
			how := "as emitted"
			if s.sorted {
				lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
				sort.Slice(lines, func(i, j int) bool { return bytes.Compare(lines[i], lines[j]) < 0 })
				raw = append(bytes.Join(lines, []byte("\n")), '\n')
				how = "sorted lines"
			}
			fmt.Fprintf(&got, "metrics stream sha256 (%s): %x\n", how, sha256.Sum256(raw))
			got.Write(table.Bytes())

			path := filepath.Join("testdata", "sweep_"+s.name+".golden")
			if *update && pool == nil {
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
				t.Errorf("%s sweep drifted from its golden:\n--- got ---\n%s--- want ---\n%s"+
					"(regenerate with -update if the change is intended)", s.name, got.Bytes(), want)
			}
		})
	}
}
