// Package metrics defines the shared counters every simulated component
// reports: protocol transactions ("messages" in the paper's terminology),
// raw frames, bytes on the wire, retransmissions, disk operations and CPU
// busy time. The unit conventions follow the paper's measurement tools:
//
//   - Messages counts protocol transactions the way nfsstat and the
//     authors' instrumented iSCSI initiator count them: one RPC
//     call-with-reply is one message; one SCSI command (with its data and
//     status phases) is one message.
//   - Frames counts individual network traversals (a call and its reply
//     are two frames), closer to what a packet monitor sees.
//   - Bytes counts payload plus protocol headers in both directions.
package metrics

import "fmt"

// NetStats aggregates wire-level counters for one network link.
type NetStats struct {
	Messages    int64 // protocol transactions (RPCs, SCSI commands)
	Frames      int64 // one-way message traversals
	BytesSent   int64 // client -> server
	BytesRecv   int64 // server -> client
	Retransmits int64 // duplicated requests due to client timeouts
	Dropped     int64 // frames lost by injected failures
}

// Bytes returns total bytes in both directions.
func (s NetStats) Bytes() int64 { return s.BytesSent + s.BytesRecv }

// Add accumulates o into s.
func (s *NetStats) Add(o NetStats) {
	s.Messages += o.Messages
	s.Frames += o.Frames
	s.BytesSent += o.BytesSent
	s.BytesRecv += o.BytesRecv
	s.Retransmits += o.Retransmits
	s.Dropped += o.Dropped
}

// Sub returns s - o; used to delta-count a measurement window.
func (s NetStats) Sub(o NetStats) NetStats {
	return NetStats{
		Messages:    s.Messages - o.Messages,
		Frames:      s.Frames - o.Frames,
		BytesSent:   s.BytesSent - o.BytesSent,
		BytesRecv:   s.BytesRecv - o.BytesRecv,
		Retransmits: s.Retransmits - o.Retransmits,
		Dropped:     s.Dropped - o.Dropped,
	}
}

// String renders the headline counters for log lines.
func (s NetStats) String() string {
	return fmt.Sprintf("msgs=%d frames=%d bytes=%d retrans=%d",
		s.Messages, s.Frames, s.Bytes(), s.Retransmits)
}

// Counters exports the stats as event-stream counters (SubsysNet).
func (s NetStats) Counters() map[string]int64 {
	return map[string]int64{
		"messages":    s.Messages,
		"frames":      s.Frames,
		"bytes_sent":  s.BytesSent,
		"bytes_recv":  s.BytesRecv,
		"retransmits": s.Retransmits,
		"dropped":     s.Dropped,
	}
}

// DiskStats aggregates counters for one disk or array.
type DiskStats struct {
	Reads      int64
	Writes     int64
	BlocksRead int64
	BlocksWrit int64
	Seeks      int64
	// DegradedReads counts logical reads served by parity reconstruction
	// while the array runs with a failed member; RebuildBlocks counts the
	// blocks moved by rebuild traffic (surviving-member reads plus
	// replacement writes). Both stay zero on a healthy array.
	DegradedReads int64
	RebuildBlocks int64
}

// add accumulates o into s.
func (s *DiskStats) add(o DiskStats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.BlocksRead += o.BlocksRead
	s.BlocksWrit += o.BlocksWrit
	s.Seeks += o.Seeks
	s.DegradedReads += o.DegradedReads
	s.RebuildBlocks += o.RebuildBlocks
}

// Sub returns s - o.
func (s DiskStats) Sub(o DiskStats) DiskStats {
	return DiskStats{
		Reads:         s.Reads - o.Reads,
		Writes:        s.Writes - o.Writes,
		BlocksRead:    s.BlocksRead - o.BlocksRead,
		BlocksWrit:    s.BlocksWrit - o.BlocksWrit,
		Seeks:         s.Seeks - o.Seeks,
		DegradedReads: s.DegradedReads - o.DegradedReads,
		RebuildBlocks: s.RebuildBlocks - o.RebuildBlocks,
	}
}

// Ops returns total I/O operations.
func (s DiskStats) Ops() int64 { return s.Reads + s.Writes }

// Counters exports the stats as event-stream counters (SubsysDisk).
func (s DiskStats) Counters() map[string]int64 {
	return map[string]int64{
		"reads":          s.Reads,
		"writes":         s.Writes,
		"blocks_read":    s.BlocksRead,
		"blocks_written": s.BlocksWrit,
		"seeks":          s.Seeks,
		"degraded_reads": s.DegradedReads,
		"rebuild_blocks": s.RebuildBlocks,
	}
}
