package sunrpc

import (
	"testing"
	"time"
)

// scanSlots is the slot table as it was before its sorted order, kept as the
// reference: every admission scans all horizons for the earliest, the lowest
// index on a tie.
type scanSlots struct {
	slots         []time.Duration
	waits, waitNs int64
}

func (r *scanSlots) acquire(n int, start time.Duration) (time.Duration, int) {
	if len(r.slots) != n {
		r.slots = make([]time.Duration, n)
	}
	idx := 0
	for i, h := range r.slots {
		if h < r.slots[idx] {
			idx = i
		}
	}
	admit := start
	if free := r.slots[idx]; free > admit {
		admit = free
		r.waits++
		r.waitNs += int64(free - start)
	}
	return admit, idx
}

// FuzzSlotTableMatchesScan drives the sorted slot table and the scan
// through the same calls: admissions at any time, completions in any order
// (later or earlier than the admission, ties included, calls overlapping and
// nested), and resizes of an idle table. Every admission must pick the same
// slot at the same time, and the slot-wait counters must agree throughout.
func FuzzSlotTableMatchesScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1, 0x81, 0x81, 0x81, 1, 1})                   // three at once, all complete, two more
	f.Add([]byte{0xFF, 2, 5, 5, 5, 0x85, 0xC3, 5})                   // a 3-slot table, a queued call, an early completion
	f.Add([]byte{0, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0, 0, 0, 0, 0}) // ties everywhere: the lowest index wins
	f.Add([]byte{0xFF, 2, 0, 0x85, 0, 0x85, 0})                      // two slots free at once, released in index order
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := NewClient(nil, TCP)
		var ref scanSlots
		type call struct {
			slot  int
			admit time.Duration
		}
		var inflight []call
		var now time.Duration
		for i := 0; i < len(ops); i++ {
			op := ops[i]
			switch {
			case op == 0xFF && i+1 < len(ops):
				// Resize an idle table; the in-flight calls complete first.
				for _, cl := range inflight {
					c.release(cl.slot, cl.admit)
					ref.slots[cl.slot] = cl.admit
				}
				inflight = inflight[:0]
				i++
				c.SlotEntries = int(ops[i] % 20) // 0: the default
			case op&0x80 == 0:
				now += time.Duration(op&0x0F) * time.Millisecond
				n := c.SlotEntries
				if n <= 0 {
					n = defaultSlotEntries
				}
				wantAdmit, wantSlot := ref.acquire(n, now)
				admit, slot := c.acquireSlot(now)
				if admit != wantAdmit || slot != wantSlot {
					t.Fatalf("op %d: admitted at %v in slot %d, the scan at %v in slot %d", i, admit, slot, wantAdmit, wantSlot)
				}
				inflight = append(inflight, call{slot, admit})
			case len(inflight) > 0:
				// Complete one in-flight call, possibly before its admission.
				k := int(op>>4&0x3) % len(inflight)
				cl := inflight[k]
				inflight = append(inflight[:k], inflight[k+1:]...)
				done := cl.admit + time.Duration(op&0x0F)*time.Millisecond
				if op&0x40 != 0 {
					done = cl.admit - time.Duration(op&0x0F)*time.Millisecond
				}
				c.release(cl.slot, done)
				ref.slots[cl.slot] = done
			}
			if s := c.Stats(); s.SlotWaits != ref.waits || s.SlotWaitNs != ref.waitNs {
				t.Fatalf("op %d: %d waits for %d ns, the scan %d for %d", i, s.SlotWaits, s.SlotWaitNs, ref.waits, ref.waitNs)
			}
		}
	})
}
