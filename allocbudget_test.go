package main

import (
	"runtime"
	"testing"

	"repro/internal/testbed"
	"repro/internal/workload"
)

// TestPostMarkAllocBudget keeps the meta-data path's host garbage bounded
// without the benchmark: the hostbench `postmark` shape (500 files, 5000
// transactions, NFSv3 then iSCSI, testbed builds included) allocated 2.34 M
// objects when every directory entry walked past became a string, and about
// 66 k since. The budget leaves room for noise, not for a per-entry or
// per-RPC allocation to come back.
func TestPostMarkAllocBudget(t *testing.T) {
	const budget = 150000
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
