package simdisk

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/tracing"
)

// RAID5 models a 4+p left-symmetric RAID-5 array, matching the paper's
// ServeRAID configuration: four data disks plus one parity disk per array,
// striped in fixed stripe units.
//
// Reads are striped across the data portions; a full-stripe write touches
// every member once, while a partial-stripe write pays the classic
// read-modify-write penalty (read old data + old parity, write new data +
// new parity).
type RAID5 struct {
	disks       []*disk
	stripeUnit  int   // blocks per stripe unit
	dataBlocks  int64 // logical capacity in blocks
	stats       metrics.DiskStats
	writebackOn bool // controller write-back cache absorbs some latency
	tracer      *tracing.Tracer

	// Degraded-mode state: failed is the dead member (-1 = healthy).
	// While a member is failed, reads touching it reconstruct from the
	// surviving members' parity and writes skip it; RebuildStep drives
	// the replacement's reconstruction traffic through the same arms as
	// foreground I/O, so rebuild and service compete for the spindles.
	failed     int
	rebuildRow int64 // next stripe row RebuildStep will reconstruct
	rebuilding bool

	// streamTails tracks the ends of recent write streams; appends that
	// continue any tracked stream merge in NVRAM and destage without
	// read-modify-write (journal appends interleaved with data flushes
	// each keep their own stream).
	streamTails [8]int64
	streamNext  int

	// runs is what split returns, reused by the next request: Read and
	// Write finish with one split before anything asks for another.
	runs []diskRun
}

// NewRAID5 builds an array from n identical member disks (n >= 3) with the
// given stripe unit in blocks.
func NewRAID5(members int, p Params, stripeUnitBlocks int) (*RAID5, error) {
	if members < 3 {
		return nil, fmt.Errorf("simdisk: RAID-5 needs >= 3 members, got %d", members)
	}
	if stripeUnitBlocks <= 0 {
		stripeUnitBlocks = 8 // 32 KB stripe units on 4 KB blocks
	}
	r := &RAID5{stripeUnit: stripeUnitBlocks, writebackOn: true, failed: -1}
	for i := 0; i < members; i++ {
		r.disks = append(r.disks, newDisk(p))
	}
	r.dataBlocks = int64(members-1) * p.Blocks
	return r, nil
}

// SetTracer attaches a tracer that records each logical array request as a
// tracing.LayerDisk span (nil = tracing off).
func (r *RAID5) SetTracer(t *tracing.Tracer) { r.tracer = t }

// Blocks reports logical (data) capacity in blocks.
func (r *RAID5) Blocks() int64 { return r.dataBlocks }

// Members reports the number of member disks.
func (r *RAID5) Members() int { return len(r.disks) }

// Stats returns array-level counters (one entry per logical request).
func (r *RAID5) Stats() metrics.DiskStats { return r.stats }

// Counters exports array-level I/O counters plus aggregate member busy
// time for the metrics event stream (metrics.SubsysDisk).
func (r *RAID5) Counters() map[string]int64 {
	c := r.stats.Counters()
	c["busy_ns"] = int64(r.Busy())
	return c
}

// ResetStats zeroes array and member counters.
func (r *RAID5) ResetStats() {
	r.stats = metrics.DiskStats{}
	for _, d := range r.disks {
		d.ResetStats()
	}
}

// SetBackground spreads fluid background utilization rho over every member
// disk: the closed-form load of clients that are not mechanistically
// simulated (internal/fleet). Foreground I/O on each member runs at the
// residual rate 1-rho.
func (r *RAID5) SetBackground(rho float64) {
	for _, d := range r.disks {
		d.SetBackground(rho)
	}
}

// Busy reports the max member busy time (the array bottleneck).
func (r *RAID5) Busy() time.Duration {
	var max time.Duration
	for _, d := range r.disks {
		if b := d.Busy(); b > max {
			max = b
		}
	}
	return max
}

// locate maps a logical block to (disk index, physical lba) using
// left-symmetric parity rotation.
func (r *RAID5) locate(lba int64) (disk int, plba int64, stripe int64) {
	n := int64(len(r.disks))
	su := int64(r.stripeUnit)
	unit := lba / su        // logical stripe-unit index
	off := lba % su         // block offset within unit
	stripe = unit / (n - 1) // stripe row
	col := unit % (n - 1)   // data column within the row
	parity := (n - 1 - stripe%n + n) % n
	d := col
	if d >= parity {
		d++
	}
	return int(d), stripe*su + off, stripe
}

// parityDisk returns the parity member for a stripe row.
func (r *RAID5) parityDisk(stripe int64) int {
	n := int64(len(r.disks))
	return int((n - 1 - stripe%n + n) % n)
}

// runs splits [lba, lba+blocks) into per-disk contiguous runs.
type diskRun struct {
	disk   int
	plba   int64
	blocks int
	stripe int64
}

func (r *RAID5) split(lba int64, blocks int) []diskRun {
	runs := r.runs[:0]
	for blocks > 0 {
		d, plba, stripe := r.locate(lba)
		su := int64(r.stripeUnit)
		inUnit := int(su - lba%su)
		if inUnit > blocks {
			inUnit = blocks
		}
		// Merge with previous run if physically contiguous on same disk.
		if len(runs) > 0 {
			last := &runs[len(runs)-1]
			if last.disk == d && last.plba+int64(last.blocks) == plba {
				last.blocks += inUnit
				lba += int64(inUnit)
				blocks -= inUnit
				continue
			}
		}
		runs = append(runs, diskRun{disk: d, plba: plba, blocks: inUnit, stripe: stripe})
		lba += int64(inUnit)
		blocks -= inUnit
	}
	r.runs = runs
	return runs
}

// Read performs a logical read, striping across members; completion is the
// max of the member completions.
func (r *RAID5) Read(start time.Duration, lba int64, blocks int) (done time.Duration, err error) {
	if blocks <= 0 {
		return start, nil
	}
	if lba < 0 || lba+int64(blocks) > r.dataBlocks {
		return start, fmt.Errorf("simdisk: RAID-5 read beyond array: lba=%d blocks=%d", lba, blocks)
	}
	r.stats.Reads++
	r.stats.BlocksRead += int64(blocks)
	done = start
	op := "read"
	for _, run := range r.split(lba, blocks) {
		if run.disk == r.failed {
			// Degraded read: the data lives on the dead member, so the
			// same physical extent is read from every surviving member
			// and XOR-reconstructed — the (n-1)-fold amplification
			// Dagenais measures on real Linux RAID.
			r.stats.DegradedReads++
			op = "read_degraded"
			for i := range r.disks {
				if i == r.failed {
					continue
				}
				t, err := r.disks[i].IO(start, run.plba, run.blocks, false)
				if err != nil {
					return start, err
				}
				if t > done {
					done = t
				}
			}
			continue
		}
		t, err := r.disks[run.disk].IO(start, run.plba, run.blocks, false)
		if err != nil {
			return start, err
		}
		if t > done {
			done = t
		}
	}
	r.tracer.Record(start, done, tracing.LayerDisk, op)
	return done, nil
}

// Controller characteristics: the ServeRAID adapter has a battery-backed
// write-back cache. A write completes for the requester once it is in the
// controller's NVRAM; destaging occupies the member disks in the
// background. Under sustained load the cache fills and the requester is
// throttled to destage speed, modeled as a bounded backlog window.
const (
	controllerLatency = 180 * time.Microsecond
	controllerRate    = 200 << 20 // bytes/sec into NVRAM over the bus
	writebackWindow   = 100 * time.Millisecond
)

// Write performs a logical write. Writes spanning at least a full stripe
// width destage without parity read-modify-write (the cache coalesces them
// into full-stripe writes); smaller writes pay the classic RMW penalty on
// the touched members and the parity member.
func (r *RAID5) Write(start time.Duration, lba int64, blocks int) (done time.Duration, err error) {
	if blocks <= 0 {
		return start, nil
	}
	if lba < 0 || lba+int64(blocks) > r.dataBlocks {
		return start, fmt.Errorf("simdisk: RAID-5 write beyond array: lba=%d blocks=%d", lba, blocks)
	}
	r.stats.Writes++
	r.stats.BlocksWrit += int64(blocks)
	n := int64(len(r.disks))
	fullStripeBlocks := int(n-1) * r.stripeUnit
	su := int64(r.stripeUnit)
	bs := int64(r.disks[0].p.BlockSize)

	runs := r.split(lba, blocks)
	mechDone := start
	streaming := false
	for i, t := range r.streamTails {
		if t != 0 && t == lba {
			streaming = true
			r.streamTails[i] = lba + int64(blocks)
			break
		}
	}
	if !streaming {
		r.streamTails[r.streamNext] = lba + int64(blocks)
		r.streamNext = (r.streamNext + 1) % len(r.streamTails)
	}
	if blocks >= fullStripeBlocks || streaming {
		// Stripe-width or larger — or a streaming append the controller
		// cache merges with its predecessor (journal writes are always
		// appends) — destages as full stripes: data members write their
		// shares, parity written once per touched row, no preliminary
		// reads.
		seen := make(map[int64]bool)
		for _, run := range runs {
			if run.disk != r.failed {
				t, err := r.disks[run.disk].IO(start, run.plba, run.blocks, true)
				if err != nil {
					return start, err
				}
				if t > mechDone {
					mechDone = t
				}
			}
			first := run.stripe
			last := (run.plba + int64(run.blocks) - 1) / su
			for s := first; s <= last; s++ {
				if seen[s] {
					continue
				}
				seen[s] = true
				pd := r.parityDisk(s)
				if pd == r.failed {
					continue // parity for this row died with the member
				}
				t, err := r.disks[pd].IO(start, s*su, r.stripeUnit, true)
				if err != nil {
					return start, err
				}
				if t > mechDone {
					mechDone = t
				}
			}
		}
	} else {
		// Partial-stripe write: read old data + old parity, write new data
		// + new parity. A failed data member turns the pre-read into a
		// reconstruct-write (read every surviving member, recompute
		// parity, no data write); a failed parity member skips the
		// parity update entirely — the data write alone suffices.
		parityDone := make(map[int64]bool)
		for _, run := range runs {
			if run.disk == r.failed {
				var rd time.Duration
				for i := range r.disks {
					if i == r.failed {
						continue
					}
					t, err := r.disks[i].IO(start, run.plba, run.blocks, false)
					if err != nil {
						return start, err
					}
					if t > rd {
						rd = t
					}
				}
				first := run.stripe
				last := (run.plba + int64(run.blocks) - 1) / su
				for s := first; s <= last; s++ {
					if parityDone[s] {
						continue
					}
					parityDone[s] = true
					pwr, err := r.disks[r.parityDisk(s)].IO(rd, s*su, r.stripeUnit, true)
					if err != nil {
						return start, err
					}
					if pwr > mechDone {
						mechDone = pwr
					}
				}
				continue
			}
			rd, err := r.disks[run.disk].IO(start, run.plba, run.blocks, false)
			if err != nil {
				return start, err
			}
			wr, err := r.disks[run.disk].IO(rd, run.plba, run.blocks, true)
			if err != nil {
				return start, err
			}
			if wr > mechDone {
				mechDone = wr
			}
			first := run.stripe
			last := (run.plba + int64(run.blocks) - 1) / su
			for s := first; s <= last; s++ {
				if parityDone[s] {
					continue
				}
				pd := r.parityDisk(s)
				if pd == r.failed {
					parityDone[s] = true
					continue
				}
				prd, err := r.disks[pd].IO(start, s*su, r.stripeUnit, false)
				if err != nil {
					return start, err
				}
				pwr, err := r.disks[pd].IO(prd, s*su, r.stripeUnit, true)
				if err != nil {
					return start, err
				}
				parityDone[s] = true
				if pwr > mechDone {
					mechDone = pwr
				}
			}
		}
	}
	op := "write_rmw"
	if blocks >= fullStripeBlocks || streaming {
		op = "write_full"
	}
	if !r.writebackOn {
		r.tracer.Record(start, mechDone, tracing.LayerDisk, op)
		return mechDone, nil
	}
	// Requester sees NVRAM latency; backlog beyond the writeback window
	// throttles to destage speed.
	done = start + controllerLatency +
		time.Duration(int64(blocks)*bs*int64(time.Second)/controllerRate)
	if floor := mechDone - writebackWindow; floor > done {
		done = floor
	}
	// The span covers the requester-visible completion (NVRAM landing or
	// backlog throttle), not the background destage.
	r.tracer.Record(start, done, tracing.LayerDisk, op)
	return done, nil
}

// Gauges exports the array's instantaneous saturation state for the health
// scraper (metrics.SubsysGauge): queue_ns is how far the busiest arm's
// queue extends past now, degraded is 0/1, and rebuild is the replacement
// member's reconstruction progress (1 when healthy).
func (r *RAID5) Gauges(now time.Duration) map[string]float64 {
	var queue time.Duration
	for _, d := range r.disks {
		if q := d.BusyUntil() - now; q > queue {
			queue = q
		}
	}
	degraded := 0.0
	if r.Degraded() {
		degraded = 1
	}
	return map[string]float64{
		"queue_ns": float64(queue),
		"degraded": degraded,
		"rebuild":  r.RebuildProgress(),
	}
}

// ---- member failure and rebuild ----

// FailDisk kills one member: until the rebuild completes, reads touching
// it reconstruct from parity across the surviving members and writes skip
// it. A second concurrent failure would lose data, so it is rejected.
func (r *RAID5) FailDisk(member int) error {
	if member < 0 || member >= len(r.disks) {
		return fmt.Errorf("simdisk: RAID-5 has no member %d", member)
	}
	if r.failed >= 0 {
		return fmt.Errorf("simdisk: RAID-5 already degraded (member %d failed)", r.failed)
	}
	r.failed = member
	r.rebuilding = false
	return nil
}

// Degraded reports whether the array is running with a failed member.
func (r *RAID5) Degraded() bool { return r.failed >= 0 }

// FailedMember returns the dead member index, or -1 when healthy.
func (r *RAID5) FailedMember() int { return r.failed }

// StartRebuild installs a hot-spare replacement for the failed member and
// arms the rebuild cursor at row zero. The reconstruction traffic itself
// is driven by RebuildStep so its competition with foreground I/O happens
// in scheduled virtual time; the array stays degraded (reads keep
// reconstructing) until the rebuild finishes.
func (r *RAID5) StartRebuild() error {
	if r.failed < 0 {
		return fmt.Errorf("simdisk: RAID-5 rebuild on a healthy array")
	}
	r.rebuilding = true
	r.rebuildRow = 0
	return nil
}

// rebuildRows is the member row count a full rebuild must reconstruct.
func (r *RAID5) rebuildRows() int64 { return r.disks[0].p.Blocks / int64(r.stripeUnit) }

// Rebuilding reports whether a rebuild is in progress.
func (r *RAID5) Rebuilding() bool { return r.rebuilding }

// RebuildProgress reports the rebuilt fraction of the replacement member,
// 0..1 (1 when healthy).
func (r *RAID5) RebuildProgress() float64 {
	if r.failed < 0 {
		return 1
	}
	if !r.rebuilding {
		return 0
	}
	return float64(r.rebuildRow) / float64(r.rebuildRows())
}

// RebuildStep reconstructs up to rows stripe rows starting at start: each
// row is read from every surviving member and the XOR written to the
// replacement, through the same arm resources foreground I/O uses — so a
// busy array slows the rebuild and the rebuild steals service time from
// foreground requests, the contention Dagenais' RAID study measures.
// It returns the completion time of the last row and whether the rebuild
// is finished (the array then leaves degraded mode).
func (r *RAID5) RebuildStep(start time.Duration, rows int) (done time.Duration, finished bool, err error) {
	if !r.rebuilding {
		return start, r.failed < 0, nil
	}
	su := int64(r.stripeUnit)
	total := r.rebuildRows()
	done = start
	for n := 0; n < rows && r.rebuildRow < total; n++ {
		row := r.rebuildRow
		readDone := done
		for i := range r.disks {
			if i == r.failed {
				continue
			}
			t, err := r.disks[i].IO(done, row*su, r.stripeUnit, false)
			if err != nil {
				return done, false, err
			}
			if t > readDone {
				readDone = t
			}
		}
		t, err := r.disks[r.failed].IO(readDone, row*su, r.stripeUnit, true)
		if err != nil {
			return done, false, err
		}
		done = t
		r.stats.RebuildBlocks += int64(len(r.disks)) * int64(r.stripeUnit)
		r.rebuildRow++
	}
	if r.rebuildRow >= total {
		r.rebuilding = false
		r.failed = -1
		return done, true, nil
	}
	return done, false, nil
}
