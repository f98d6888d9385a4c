package workload

import (
	"testing"
	"time"

	"repro/internal/testbed"
)

func tbFor(t *testing.T, k testbed.Kind) *testbed.Testbed {
	t.Helper()
	tb, err := testbed.New(testbed.Config{Kind: k, DeviceBlocks: 131072}) // 512 MB
	if err != nil {
		t.Fatalf("testbed: %v", err)
	}
	return tb
}

// TestPostMarkShape verifies the paper's Table 5 shape at reduced scale:
// iSCSI completes meta-data-intensive PostMark much faster and with far
// fewer messages than NFS v3.
func TestPostMarkShape(t *testing.T) {
	cfg := PostMarkConfig{Files: 200, Transactions: 2000, MinSize: 500, MaxSize: 5000, Seed: 42}
	results := map[testbed.Kind]Result{}
	for _, k := range []testbed.Kind{testbed.NFSv3, testbed.ISCSI} {
		tb := tbFor(t, k)
		res, stats, err := PostMark(tb, cfg)
		if err != nil {
			t.Fatalf("postmark on %v: %v", k, err)
		}
		if stats.Created == 0 || stats.Read == 0 || stats.Appended == 0 || stats.Deleted == 0 {
			t.Fatalf("degenerate mix: %+v", stats)
		}
		results[k] = res
		t.Logf("%v: %v", k, res)
	}
	nfs, is := results[testbed.NFSv3], results[testbed.ISCSI]
	if is.Messages*3 > nfs.Messages {
		t.Errorf("PostMark messages: iSCSI %d should be well under NFS %d", is.Messages, nfs.Messages)
	}
	if is.Elapsed*2 > nfs.Elapsed {
		t.Errorf("PostMark time: iSCSI %v should be well under NFS %v", is.Elapsed, nfs.Elapsed)
	}
}

// TestTPCCComparable verifies Table 6's shape: throughput parity within
// ~15% and comparable message counts.
func TestTPCCComparable(t *testing.T) {
	cfg := TPCCConfig{
		DBSize: 64 << 20, Transactions: 1500, PagesPerTxn: 12,
		ReadFraction: 2.0 / 3.0, TxnCPU: 900 * time.Microsecond,
		Seed: 99,
	}
	if testing.Short() {
		cfg.DBSize, cfg.Transactions = 32<<20, 400
	}
	results := map[testbed.Kind]Result{}
	for _, k := range []testbed.Kind{testbed.NFSv3, testbed.ISCSI} {
		// The paper's database dwarfs both machines' RAM; preserve the
		// ratio so cold reads dominate the traffic on both stacks.
		tb, err := testbed.New(testbed.Config{
			Kind: k, DeviceBlocks: 131072,
			ClientCacheBlocks: 2048, ServerCacheBlocks: 4096,
		})
		if err != nil {
			t.Fatalf("testbed: %v", err)
		}
		res, err := TPCC(tb, cfg)
		if err != nil {
			t.Fatalf("tpcc on %v: %v", k, err)
		}
		results[k] = res
		t.Logf("%v: %v tpm=%.0f", k, res, res.Throughput)
	}
	ratio := results[testbed.ISCSI].Throughput / results[testbed.NFSv3].Throughput
	if ratio < 0.85 || ratio > 1.6 {
		t.Errorf("TPC-C throughput ratio iSCSI/NFS = %.2f, want near parity (paper: 1.08)", ratio)
	}
}

// TestTPCHComparable verifies Table 7's shape: throughput parity with NFS
// needing several times more messages (8 KB RPCs vs 32 KB extents).
func TestTPCHComparable(t *testing.T) {
	cfg := TPCHConfig{
		DBSize: 64 << 20, Queries: 4, ExtentSize: 32 << 10,
		ScanFraction: 0.3, IndexProbes: 50, ExtentCPU: 220 * time.Microsecond, Seed: 1,
	}
	if testing.Short() {
		cfg.DBSize, cfg.Queries = 32<<20, 2
	}
	results := map[testbed.Kind]Result{}
	for _, k := range []testbed.Kind{testbed.NFSv3, testbed.ISCSI} {
		tb, err := testbed.New(testbed.Config{
			Kind: k, DeviceBlocks: 131072,
			ClientCacheBlocks: 2048, ServerCacheBlocks: 4096,
		})
		if err != nil {
			t.Fatalf("testbed: %v", err)
		}
		res, err := TPCH(tb, cfg)
		if err != nil {
			t.Fatalf("tpch on %v: %v", k, err)
		}
		results[k] = res
		t.Logf("%v: %v qph=%.0f", k, res, res.Throughput)
	}
	ratio := results[testbed.ISCSI].Throughput / results[testbed.NFSv3].Throughput
	if ratio < 0.8 || ratio > 1.8 {
		t.Errorf("TPC-H throughput ratio = %.2f, want near parity (paper: 1.07)", ratio)
	}
	msgRatio := float64(results[testbed.NFSv3].Messages) / float64(results[testbed.ISCSI].Messages)
	if msgRatio < 2 {
		t.Errorf("TPC-H message ratio NFS/iSCSI = %.1f, want > 2 (paper: ~4.2)", msgRatio)
	}
}

// TestKernelBenchmarks verifies Table 8's shape: iSCSI wins the meta-data
// heavy phases (tar, ls, rm) while compile is CPU-bound and comparable.
func TestKernelBenchmarks(t *testing.T) {
	cfg := KernelConfig{Dirs: 12, FilesPerDir: 10, MeanSize: 8 << 10, CompileCPU: 35 * time.Millisecond, Seed: 5}
	type row struct{ tar, ls, compile, rm time.Duration }
	rows := map[testbed.Kind]row{}
	for _, k := range []testbed.Kind{testbed.NFSv3, testbed.ISCSI} {
		tb := tbFor(t, k)
		r1, err := KernelUntar(tb, cfg)
		if err != nil {
			t.Fatalf("untar: %v", err)
		}
		r2, err := KernelList(tb, cfg)
		if err != nil {
			t.Fatalf("ls: %v", err)
		}
		r3, err := KernelCompile(tb, cfg)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		r4, err := KernelRemove(tb, cfg)
		if err != nil {
			t.Fatalf("rm: %v", err)
		}
		rows[k] = row{r1.Elapsed, r2.Elapsed, r3.Elapsed, r4.Elapsed}
		t.Logf("%v: tar=%v ls=%v compile=%v rm=%v", k, r1.Elapsed, r2.Elapsed, r3.Elapsed, r4.Elapsed)
	}
	n, i := rows[testbed.NFSv3], rows[testbed.ISCSI]
	if i.tar >= n.tar {
		t.Errorf("tar: iSCSI (%v) should beat NFS (%v)", i.tar, n.tar)
	}
	if i.rm >= n.rm {
		t.Errorf("rm -rf: iSCSI (%v) should beat NFS (%v)", i.rm, n.rm)
	}
	// Compile is CPU-bound: within 25%.
	ratio := float64(n.compile) / float64(i.compile)
	if ratio > 1.35 {
		t.Errorf("compile should be comparable: NFS/iSCSI = %.2f", ratio)
	}
}

// TestSeqRandShape verifies Table 4's shape at reduced scale.
func TestSeqRandShape(t *testing.T) {
	cfg := SeqRandConfig{FileSize: 16 << 20, ChunkSize: 4096, Seed: 7}
	if testing.Short() {
		cfg.FileSize = 4 << 20
	}
	type stack struct{ sw, rw, sr, rr Result }
	res := map[testbed.Kind]stack{}
	for _, k := range []testbed.Kind{testbed.NFSv3, testbed.ISCSI} {
		var s stack
		var err error
		if s.sw, err = SequentialWrite(tbFor(t, k), cfg); err != nil {
			t.Fatalf("sw: %v", err)
		}
		if s.rw, err = RandomWrite(tbFor(t, k), cfg); err != nil {
			t.Fatalf("rw: %v", err)
		}
		if s.sr, err = SequentialRead(tbFor(t, k), cfg); err != nil {
			t.Fatalf("sr: %v", err)
		}
		if s.rr, err = RandomRead(tbFor(t, k), cfg); err != nil {
			t.Fatalf("rr: %v", err)
		}
		res[k] = s
		t.Logf("%v: sw=%v/%d rw=%v/%d sr=%v/%d rr=%v/%d", k,
			s.sw.Elapsed, s.sw.Messages, s.rw.Elapsed, s.rw.Messages,
			s.sr.Elapsed, s.sr.Messages, s.rr.Elapsed, s.rr.Messages)
	}
	n, i := res[testbed.NFSv3], res[testbed.ISCSI]
	// Writes: iSCSI much faster and far fewer messages.
	if i.sw.Elapsed*2 > n.sw.Elapsed {
		t.Errorf("seq write: iSCSI %v should be well under NFS %v", i.sw.Elapsed, n.sw.Elapsed)
	}
	if i.sw.Messages*10 > n.sw.Messages {
		t.Errorf("seq write messages: iSCSI %d vs NFS %d, want ~29x gap", i.sw.Messages, n.sw.Messages)
	}
	// Reads: comparable times and message counts.
	rt := float64(n.sr.Elapsed) / float64(i.sr.Elapsed)
	if rt < 0.5 || rt > 2.2 {
		t.Errorf("seq read should be comparable: NFS/iSCSI = %.2f", rt)
	}
	// Random reads slower than sequential on both.
	if n.rr.Elapsed <= n.sr.Elapsed || i.rr.Elapsed <= i.sr.Elapsed {
		t.Errorf("random reads should cost more than sequential (nfs %v<=%v? iscsi %v<=%v?)",
			n.rr.Elapsed, n.sr.Elapsed, i.rr.Elapsed, i.sr.Elapsed)
	}
}

// TestDefaultSeqRandIsWholeChunks: the paper's file is a whole number of
// chunks, so the sequential and the random pass move the same bytes (the
// random drivers permute whole chunks only).
func TestDefaultSeqRandIsWholeChunks(t *testing.T) {
	cfg := DefaultSeqRand()
	if cfg.FileSize%int64(cfg.ChunkSize) != 0 || cfg.SeqBytes() != cfg.RandBytes() {
		t.Fatalf("%d-byte file in %d-byte chunks: sequential pass %d bytes, random pass %d",
			cfg.FileSize, cfg.ChunkSize, cfg.SeqBytes(), cfg.RandBytes())
	}
}
