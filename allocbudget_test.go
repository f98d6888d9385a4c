package main

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// TestPostMarkAllocBudget keeps the meta-data path's host garbage bounded
// without the benchmark: the hostbench `postmark` shape (500 files, 5000
// transactions, NFSv3 then iSCSI, testbed builds included) allocated 2.34 M
// objects when every directory entry walked past became a string, about 40 k
// while each open, create, cached name, attribute set, read-ahead state and
// path was a heap object of its own, and about 15.6 k since (half of them
// 4 KB blocks of the pool-less cells). The budget leaves room for noise, not
// for the 24 k per-operation objects to come back.
func TestPostMarkAllocBudget(t *testing.T) {
	const budget = 30000
	cfg := workload.DefaultPostMark(500)
	cfg.Transactions = 5000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, kind := range []testbed.Kind{testbed.NFSv3, testbed.ISCSI} {
		tb, err := testbed.New(testbed.Config{Kind: kind, DeviceBlocks: 131072})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := workload.PostMark(tb, cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > budget {
		t.Errorf("PostMark 500/5000 on NFSv3+iSCSI allocated %d objects, budget %d", n, budget)
	} else {
		t.Logf("%d objects (budget %d)", n, budget)
	}
}

// TestBulkReadAllocBudget keeps the data path's read direction from paying
// a heap object per cached block: the hostbench `bulk-read` shape (a 32 MB
// file read cold in sequence, warm at random and cold at random, on NFSv3
// then iSCSI, without a pool, testbed builds and the file's preparation
// included) allocated about 133 k objects while every page and buffer the
// reads cached was a heap object of its own, about 19 k once the caches
// handed them out of slabs, and about 2.1 k since an iSCSI response is a
// value. The budget leaves room for noise, not for the headers to come back
// (one per cached block is over 32 k) or for an object per command.
func TestBulkReadAllocBudget(t *testing.T) {
	const budget = 5000
	cfg := workload.SeqRandConfig{FileSize: 32 << 20, ChunkSize: 4096, Seed: 42}
	const path = "/r.dat"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, kind := range []testbed.Kind{testbed.NFSv3, testbed.ISCSI} {
		tb, err := testbed.New(testbed.Config{Kind: kind, DeviceBlocks: 131072, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		steps := []workload.Steps{
			workload.PrepareFileSteps(tb.Client, path, cfg),
			nil, // cold cache
			workload.SequentialReadSteps(tb.Client, path, cfg),
			workload.RandomReadSteps(tb.Client, path, cfg),
			nil,
			workload.RandomReadSteps(tb.Client, path, cfg),
		}
		for _, s := range steps {
			if s == nil {
				err = tb.ColdCache()
			} else {
				err = workload.RunSteps(s)
			}
			if err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > budget {
		t.Errorf("bulk-read on NFSv3+iSCSI allocated %d objects, budget %d", n, budget)
	} else {
		t.Logf("%d objects (budget %d)", n, budget)
	}
}

// TestSweepAllocBudget keeps a sweep's block memory following content, not
// copies: the hostbench `cluster` RunTransport shape (32 cells, a 2 MB
// pattern file each, a fresh testbed per cell) allocated 257 MB when every
// cached block and every stored block was a fresh 4 KB, 82 MB once constant
// blocks cost the Store nothing and the cells handed their blocks to each
// other through the sweep's pool, about 29 MB once a cache gave a block back
// where it drops it and the read path filled pool blocks from reused run and
// reply buffers, 14.4 MB and 80 k objects with the caches' entries in slabs,
// and about 4.5 MB and 6.5 k objects since a TCP window round, an iSCSI
// response and a filesystem's run buffer cost the heap nothing. The budgets
// have room for noise, not for one of those copies or per-round objects to
// come back.
func TestSweepAllocBudget(t *testing.T) {
	const budget, objectBudget = 10e6, 15000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cells, err := core.RunTransport(core.TransportConfig{
		Stacks:    []testbed.Kind{testbed.NFSv3, testbed.ISCSI},
		Workloads: []string{"seq-read", "seq-write"},
		RTTs:      []time.Duration{10 * time.Millisecond, 40 * time.Millisecond},
		LossRates: []float64{0, 0.01},
		Conns:     []int{1, 4},
		FileSize:  2 << 20,
		Seed:      42,
	})
	runtime.ReadMemStats(&after)
	if err != nil || len(cells) == 0 {
		t.Fatalf("%d cells, err %v", len(cells), err)
	}
	n, objects := float64(after.TotalAlloc-before.TotalAlloc), after.Mallocs-before.Mallocs
	if n > budget || objects > objectBudget {
		t.Errorf("RunTransport (%d cells) allocated %.1f MB and %d objects, budget %.0f MB and %d",
			len(cells), n/1e6, objects, budget/1e6, objectBudget)
	} else {
		t.Logf("%d cells, %.1f MB and %d objects (budget %.0f MB and %d)", len(cells), n/1e6, objects, budget/1e6, objectBudget)
	}
}
