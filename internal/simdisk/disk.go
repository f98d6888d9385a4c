// Package simdisk models the paper's storage hardware in virtual time: the
// Dell PowerVault pack of 10,000 RPM Ultra-160 SCSI drives and the Adaptec
// ServeRAID RAID-5 (4 data + 1 parity) arrays built from them (Section 3.1).
//
// The disk model is the classic seek + rotation + transfer decomposition:
// sequential successor blocks stream at the media rate; non-contiguous
// accesses pay a distance-scaled seek plus half a rotation. RAID-5 stripes
// across member disks and charges the read-modify-write penalty for
// partial-stripe writes.
package simdisk

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Params describes one disk mechanism.
type Params struct {
	Name         string
	Blocks       int64         // capacity in BlockSize units
	BlockSize    int           // bytes per block
	SeekAvg      time.Duration // average seek (random)
	SeekTrack    time.Duration // track-to-track (short) seek
	HalfRotation time.Duration // average rotational latency
	TransferRate int64         // media rate, bytes/sec
	CacheHitCost time.Duration // controller overhead per request
}

// Ultra160 returns parameters for the paper's 18 GB 10K RPM Ultra-160
// drives: ~4.7 ms average seek, 3 ms half rotation (10,000 RPM), ~40 MB/s
// sustained media rate.
func Ultra160() Params {
	return Params{
		Name:         "Ultra160-10K-18GB",
		Blocks:       18 << 30 / 4096,
		BlockSize:    4096,
		SeekAvg:      4700 * time.Microsecond,
		SeekTrack:    600 * time.Microsecond,
		HalfRotation: 3000 * time.Microsecond,
		TransferRate: 40 << 20,
		CacheHitCost: 60 * time.Microsecond,
	}
}

// disk is one simulated drive. Access through IO; the disk serializes
// requests on its single arm.
type disk struct {
	p       Params
	arm     sim.Resource
	lastEnd int64 // LBA just past the previous request (for sequentiality)
	stats   metrics.DiskStats
}

// newDisk creates a disk with the given parameters.
func newDisk(p Params) *disk {
	if p.BlockSize <= 0 {
		p.BlockSize = 4096
	}
	if p.TransferRate <= 0 {
		p.TransferRate = 40 << 20
	}
	return &disk{p: p, lastEnd: -1}
}

// Stats returns a snapshot of the disk's counters.
func (d *disk) Stats() metrics.DiskStats { return d.stats }

// SetBackground declares that fraction rho of the drive's time is consumed
// by fluid background traffic (see sim.Resource.SetBackground): foreground
// requests are served at the residual rate. The closed-form load carries
// no positions, so it leaves the sequentiality tracking — and therefore
// the foreground seek pattern — untouched; hybrid fleet modeling accepts
// that simplification (internal/fleet). A rho outside [0, 1) is an error.
func (d *disk) SetBackground(rho float64) error { return d.arm.SetBackground(rho) }

// Busy reports cumulative arm busy time.
func (d *disk) Busy() time.Duration { return d.arm.Busy() }

// BusyUntil reports when the arm next goes idle (the tail of its queue).
func (d *disk) BusyUntil() time.Duration { return d.arm.BusyUntil() }

// serviceTime computes positioning plus transfer for one request.
func (d *disk) serviceTime(lba int64, blocks int) time.Duration {
	transfer := time.Duration(int64(blocks) * int64(d.p.BlockSize) * int64(time.Second) / d.p.TransferRate)
	svc := d.p.CacheHitCost + transfer
	if lba != d.lastEnd {
		// Distance-scaled seek: short hops cost near track-to-track,
		// full-stroke hops cost near twice the average.
		dist := lba - d.lastEnd
		if dist < 0 {
			dist = -dist
		}
		frac := float64(dist) / float64(d.p.Blocks)
		if frac > 1 {
			frac = 1
		}
		seek := d.p.SeekTrack + time.Duration(frac*float64(2*d.p.SeekAvg-d.p.SeekTrack))
		if seek > 2*d.p.SeekAvg {
			seek = 2 * d.p.SeekAvg
		}
		svc += seek + d.p.HalfRotation
		d.stats.Seeks++
	}
	return svc
}

// IO performs a contiguous transfer of blocks starting at lba, beginning no
// earlier than start, and returns the completion time.
func (d *disk) IO(start time.Duration, lba int64, blocks int, write bool) (done time.Duration, err error) {
	if blocks <= 0 {
		return start, nil
	}
	if lba < 0 || lba+int64(blocks) > d.p.Blocks {
		return start, fmt.Errorf("simdisk: I/O beyond device: lba=%d blocks=%d cap=%d", lba, blocks, d.p.Blocks)
	}
	svc := d.serviceTime(lba, blocks)
	done = d.arm.Acquire(start, svc)
	d.lastEnd = lba + int64(blocks)
	if write {
		d.stats.Writes++
		d.stats.BlocksWrit += int64(blocks)
	} else {
		d.stats.Reads++
		d.stats.BlocksRead += int64(blocks)
	}
	return done, nil
}
