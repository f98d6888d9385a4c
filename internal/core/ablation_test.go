package core

import (
	"strings"
	"testing"
	"time"
)

// TestAblateCommitInterval verifies the aggregation-window causality: a
// longer commit interval means fewer wire messages for the same updates.
func TestAblateCommitInterval(t *testing.T) {
	res, err := AblateCommitInterval(testOpts(),
		[]time.Duration{100 * time.Millisecond, 10 * time.Second}, 60)
	if err != nil {
		t.Fatal(err)
	}
	short, long := res[0], res[1]
	t.Logf("short interval: %d msgs; long: %d msgs", short.Messages, long.Messages)
	if long.Messages >= short.Messages {
		t.Errorf("longer commit interval should aggregate more: %d vs %d",
			long.Messages, short.Messages)
	}
}

// TestAblateSyncExport verifies durability pricing: the spec-compliant
// sync export is slower than the era's async default, message counts equal
// (durability is a server-side property).
func TestAblateSyncExport(t *testing.T) {
	async, sync, err := AblateSyncExport(testOpts(), 100)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("async: %v/%d msgs; sync: %v/%d msgs",
		async.Elapsed, async.Messages, sync.Elapsed, sync.Messages)
	if sync.Elapsed <= async.Elapsed {
		t.Errorf("sync export should cost time: %v vs %v", sync.Elapsed, async.Elapsed)
	}
	if sync.Messages != async.Messages {
		t.Errorf("export mode changed wire messages: %d vs %d", sync.Messages, async.Messages)
	}
}

// TestAblateWritePool verifies Section 4.5's mechanism: a bigger async
// pool absorbs more of the write stream before degenerating.
func TestAblateWritePool(t *testing.T) {
	res, err := AblateWritePool(testOpts(), []int{64, 4096}, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	small, big := res[0], res[1]
	t.Logf("pool 64: %v; pool 4096: %v", small.Elapsed, big.Elapsed)
	if big.Elapsed >= small.Elapsed {
		t.Errorf("larger pool should be faster: %v vs %v", big.Elapsed, small.Elapsed)
	}
}

// TestAblateNoAtime verifies access-time maintenance is the only write
// traffic of a warm read workload.
func TestAblateNoAtime(t *testing.T) {
	withAtime, noAtime, err := AblateNoAtime(testOpts(), 60)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("atime: %d msgs; noatime: %d msgs", withAtime.Messages, noAtime.Messages)
	if noAtime.Messages >= withAtime.Messages {
		t.Errorf("noatime should eliminate messages: %d vs %d",
			noAtime.Messages, withAtime.Messages)
	}
	if noAtime.Messages != 0 {
		t.Errorf("warm reads without atime should be traffic-free, got %d", noAtime.Messages)
	}
}

// TestShapeChecks runs the conformance checker against regenerated data
// for a representative subset.
func TestShapeChecks(t *testing.T) {
	op, _ := findMicroOp("mkdir")
	row := SyscallRow{Op: "mkdir", Depth0: map[Stack]int64{}, Depth3: map[Stack]int64{}}
	for _, s := range []Stack{NFSv3, NFSv4, ISCSI} {
		for _, d := range []int{0, 3} {
			n, err := microCount(testOpts(), op, d, s, false)
			if err != nil {
				t.Fatal(err)
			}
			if d == 0 {
				row.Depth0[s] = n
			} else {
				row.Depth3[s] = n
			}
		}
	}
	checks := CheckTable2Shapes([]SyscallRow{row})
	var sb strings.Builder
	if fails := RenderChecks(&sb, "Table 2 conformance", checks); fails > 0 {
		t.Errorf("shape checks failed:\n%s", sb.String())
	}
	t.Log(sb.String())
}
