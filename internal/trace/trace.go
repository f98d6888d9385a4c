// Package trace reproduces the paper's Section 7 analysis: directory
// sharing characteristics of multi-client NFS workloads (Figure 7) and the
// effectiveness of the proposed enhancements — a strongly-consistent
// read-only meta-data cache and directory delegation — via trace-driven
// simulation.
//
// The paper analyzed two Harvard University traces: one day of the EECS
// trace (research/development workload, ~40,000 objects) and the home02
// Campus trace (email/web workload, ~100,000 objects). Those traces are
// not redistributable, so this package synthesizes traces with the same
// qualitative profile the paper reports: EECS-like workloads show far more
// read sharing than write sharing; Campus-like workloads show read sharing
// dominating at small time scales but read-write sharing overtaking it at
// larger scales; and in both only a few percent of directories are
// read-write shared by multiple clients at the 2^10-second scale.
//
// The simulators compare ids only for equality, so they index tables by
// them, after relabelling all ids densely in first-seen order if any lies
// outside [0, len(recs)]: no table is larger than the trace. Per directory
// they keep packed sharing counts, a bitset of caching clients (⌈clients/64⌉
// words) beside index-linked LRU slots, or a lease (writer, reader bitset).
package trace

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"repro/internal/sim"
)

// OpKind classifies a trace record the way the sharing analysis needs.
type OpKind int

// Trace operation kinds.
const (
	OpRead  OpKind = iota // meta-data read on a directory (lookup/getattr/readdir)
	OpWrite               // meta-data update in a directory (create/remove/rename/setattr)
)

// Record is one trace event.
type Record struct {
	At     time.Duration
	Client int
	Dir    int // directory object id
	Kind   OpKind
}

// Profile parameterizes trace synthesis.
type Profile struct {
	Name        string
	Clients     int
	Directories int
	Duration    time.Duration
	OpsPerSec   float64
	// WriteFraction is the fraction of operations that update meta-data.
	WriteFraction float64
	// HomeDirFraction is the fraction of directories private to one
	// client (home directories); the rest are shared project/spool
	// directories accessible to everyone.
	HomeDirFraction float64
	// SharedReadBias is the probability that an access to a shared
	// directory is a read (the rest follow WriteFraction).
	SharedReadBias float64
	Seed           int64
}

// EECS returns a research/development-workload profile: most directories
// are per-user, shared directories are read-mostly (project trees), so
// read sharing far exceeds write sharing.
func EECS() Profile {
	return Profile{
		Name:            "EECS",
		Clients:         24,
		Directories:     40000,
		Duration:        20 * time.Minute,
		OpsPerSec:       900,
		WriteFraction:   0.18,
		HomeDirFraction: 0.82,
		SharedReadBias:  0.93,
		Seed:            20010920,
	}
}

// Campus returns an email/web-workload profile: mail spools are shared and
// written by delivery agents as well as read by owners, so at large time
// scales read-write sharing overtakes pure read sharing.
func Campus() Profile {
	return Profile{
		Name:            "Campus",
		Clients:         32,
		Directories:     100000,
		Duration:        20 * time.Minute,
		OpsPerSec:       1400,
		WriteFraction:   0.34,
		HomeDirFraction: 0.62,
		SharedReadBias:  0.55,
		Seed:            20011002,
	}
}

// Synthesize generates a deterministic trace from a profile. Access is
// bursty per client (sessions of consecutive operations), as real NFS
// traces are.
func Synthesize(p Profile) []Record {
	rng := sim.NewRNG(p.Seed)
	n := int(p.Duration.Seconds() * p.OpsPerSec)
	recs := make([]Record, 0, n)
	homeCut := int(float64(p.Directories) * p.HomeDirFraction)
	client := 0
	for i := 0; i < n; i++ {
		at := time.Duration(float64(p.Duration) * float64(i) / float64(n))
		if i == 0 || rng.Float64() < 0.04 {
			client = rng.Intn(p.Clients) // session switch
		}
		var dir int
		var kind OpKind
		if rng.Float64() < 0.75 {
			// Access within the client's own home subtree (Zipf-ish:
			// concentrated on a per-client slice of the namespace).
			slice := homeCut / p.Clients
			if slice == 0 {
				slice = 1
			}
			dir = client*slice + zipfIndex(rng, slice)
			if rng.Float64() < p.WriteFraction {
				kind = OpWrite
			}
		} else {
			// Shared directory (project tree, spool). Sharing is mostly
			// two-party — a mail spool is written by the delivery agent
			// and read by its owner — so each shared directory has an
			// affinity pair of adjacent clients that generates most of
			// its traffic.
			shared := p.Directories - homeCut
			if shared <= 0 {
				shared = 1
			}
			dir = homeCut + zipfIndex(rng, shared)
			if rng.Float64() < 0.85 {
				// Align the directory's affinity pair with this client.
				s := client
				if rng.Intn(2) == 1 {
					s = (client - 1 + p.Clients) % p.Clients
				}
				rel := dir - homeCut
				rel = rel - rel%p.Clients + s
				if rel >= shared {
					rel = s % shared
				}
				dir = homeCut + rel
			}
			if rng.Float64() >= p.SharedReadBias {
				kind = OpWrite
			}
		}
		recs = append(recs, Record{At: at, Client: client, Dir: dir, Kind: kind})
	}
	return recs
}

// zipfIndex draws a skewed index in [0, n): a small hot set absorbs most
// accesses, like real directory popularity.
func zipfIndex(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	// Min of three uniform draws concentrates mass near zero (a Zipf-like
	// head) while keeping a long tail.
	a, b, c := rng.Intn(n), rng.Intn(n), rng.Intn(n)
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// SharingPoint is one Figure 7 sample: at interval length T, the fraction
// of accessed directories in each sharing class.
type SharingPoint struct {
	Interval        time.Duration
	ReadOne         float64 // read by exactly one client
	WriteOne        float64 // written by exactly one client
	ReadMultiple    float64 // read by more than one client
	WrittenMultiple float64 // written (or read-write shared) by >1 client
}

// denseIDs returns recs with ids that index a table (relabelled in a copy
// if need be) and the two table sizes, largest id + 1.
func denseIDs(recs []Record) (dense []Record, dirs, clients int) {
	sparse := false
	for _, r := range recs {
		sparse = sparse || r.Dir < 0 || r.Dir > len(recs) || r.Client < 0 || r.Client > len(recs)
		dirs, clients = max(dirs, r.Dir+1), max(clients, r.Client+1)
	}
	if !sparse {
		return recs, dirs, clients
	}
	dense, seen := slices.Clone(recs), map[[2]int]int{} // {0, dir} or {1, client}: new id
	var n [2]int
	for i := range dense {
		for k, id := range [2]*int{&dense[i].Dir, &dense[i].Client} {
			to, ok := seen[[2]int{k, *id}]
			if !ok {
				to, n[k] = n[k], n[k]+1
				seen[[2]int{k, *id}] = to
			}
			*id = to
		}
	}
	return dense, n[0], n[1]
}

// sharers counts the distinct clients of one sharing class as none, one or
// more, packed in an int32: 0 is none, id+1 is only client id, -1 is more.
type sharers int32

func (s *sharers) add(client int) {
	if id := sharers(client + 1); *s == 0 {
		*s = id
	} else if *s != id {
		*s = -1
	}
}

// dirSharers is who touched one directory inside one window.
type dirSharers struct{ readers, writers, clients sharers }

// AnalyzeSharing computes the paper's Figure 7 curves: for each interval
// length T, partition the trace into windows of T and classify every
// directory accessed in a window by who read and wrote it; report the mean
// fraction per class, normalized by directories accessed in the window.
// Windows without a record count for nothing, and a non-positive T has no
// windows at all: its point is all zeros.
func AnalyzeSharing(recs []Record, intervals []time.Duration) []SharingPoint {
	if len(intervals) == 0 {
		for t := 4; t <= 1024; t *= 2 {
			intervals = append(intervals, time.Duration(t)*time.Second)
		}
	}
	recs, dirs, _ := denseIDs(recs)
	stats := make([]dirSharers, dirs) // zero outside the current window
	out := make([]SharingPoint, 0, len(intervals))
	for _, T := range intervals {
		var sum [4]float64 // per class, summed over windows in order
		windows, start := 0, time.Duration(0)
		for i := 0; i < len(recs) && T > 0; windows++ {
			if at := recs[i].At; at >= start+T {
				start = at / T * T // jump over the empty windows before it
			}
			first, end := i, start+T
			for ; i < len(recs) && recs[i].At < end; i++ {
				r, ds := recs[i], &stats[recs[i].Dir]
				if r.Kind == OpRead {
					ds.readers.add(r.Client)
				} else {
					ds.writers.add(r.Client)
				}
				ds.clients.add(r.Client)
			}
			// The window's records list its directories: each is
			// classified at its first record and zeroed for the next. The
			// classes are in SharingPoint's order; read-write shared is
			// updated by someone and touched by more than one client.
			touched, class := 0, [4]int{}
			for _, r := range recs[first:i] {
				if d := stats[r.Dir]; d.clients != 0 {
					stats[r.Dir] = dirSharers{}
					touched++
					for k, in := range [4]bool{d.readers > 0, d.writers > 0, d.readers < 0, d.writers != 0 && d.clients < 0} {
						if in {
							class[k]++
						}
					}
				}
			}
			for k, n := range class {
				sum[k] += float64(n) / float64(touched)
			}
			start = end
		}
		w := float64(max(windows, 1))
		out = append(out, SharingPoint{T, sum[0] / w, sum[1] / w, sum[2] / w, sum[3] / w})
	}
	return out
}

// CacheSimResult reports the Section 7 trace-driven evaluation of a
// strongly-consistent read-only meta-data cache of a given size.
type CacheSimResult struct {
	CacheSize int
	// Reduction is the fraction of meta-data read messages eliminated.
	Reduction float64
	// CallbackRatio is invalidation callbacks per meta-data message.
	CallbackRatio float64
}

// SimulateMetadataCache replays a trace against per-client LRU directory
// caches with server-driven invalidations: meta-data reads hit the local
// cache (no message); updates always go to the server, which invalidates
// other clients' cached entries (callback messages).
func SimulateMetadataCache(recs []Record, cacheSize int) CacheSimResult {
	recs, dirs, clients := denseIDs(recs)
	caches := newDirCaches(recs, dirs, clients, max(cacheSize, 1))
	var readHits, callbacks int64
	for _, r := range recs {
		if r.Kind != OpRead {
			callbacks += caches.update(r.Client, r.Dir)
		} else if caches.read(r.Client, r.Dir) {
			readHits++
		}
	}
	res := CacheSimResult{CacheSize: cacheSize}
	if total := float64(len(recs)); total > 0 {
		res.Reduction, res.CallbackRatio = float64(readHits)/total, float64(callbacks)/total
	}
	return res
}

// dirCaches is every client's LRU cache of directories. Client c owns slots
// head[c] to head[c+1]-1: the first heads a circular list, most recent
// first, of min(size, c's records) slots holding a directory or, last, -1.
type dirCaches struct {
	clients, words int
	holders        []uint64
	head           []int
	slots          []struct{ prev, next, dir int }
	at             map[int]int
}

func newDirCaches(recs []Record, dirs, clients, size int) *dirCaches {
	head := make([]int, clients+1)
	for _, r := range recs {
		head[r.Client+1]++
	}
	for c := range clients {
		head[c+1] = head[c] + 1 + min(size, head[c+1])
	}
	words := (clients + 63) / 64
	d := &dirCaches{clients: clients, words: words, holders: make([]uint64, dirs*words), head: head}
	d.slots, d.at = make([]struct{ prev, next, dir int }, head[clients]), make(map[int]int, head[clients]-clients)
	for s := range d.slots {
		d.slots[s].prev, d.slots[s].next, d.slots[s].dir = s-1, s+1, -1
	}
	for c := range clients {
		d.slots[head[c]].prev, d.slots[head[c+1]-1].next = head[c+1]-1, head[c]
	}
	return d
}

// read reports whether the client caches dir and makes dir its most recent
// entry, on a miss in its least recent slot, evicting what that held.
func (d *dirCaches) read(client, dir int) (hit bool) {
	w, bit := client/64, uint64(1)<<(client%64)
	if d.holders[dir*d.words+w]&bit != 0 {
		d.place(client, d.at[dir*d.clients+client], true)
		return true
	}
	s := d.slots[d.head[client]].prev
	if old := d.slots[s].dir; old >= 0 {
		delete(d.at, old*d.clients+client)
		d.holders[old*d.words+w] &^= bit
	}
	d.slots[s].dir, d.at[dir*d.clients+client] = dir, s
	d.holders[dir*d.words+w] |= bit
	d.place(client, s, true)
	return false
}

// update drops dir from every cache but the writer's and returns the
// callbacks that takes.
func (d *dirCaches) update(writer, dir int) (callbacks int64) {
	h := d.holders[dir*d.words : (dir+1)*d.words]
	for i, held := range h {
		if i == writer/64 {
			held &^= 1 << (writer % 64)
		}
		h[i] &^= held
		for ; held != 0; held &= held - 1 {
			c := i*64 + bits.TrailingZeros64(held)
			s := d.at[dir*d.clients+c]
			delete(d.at, dir*d.clients+c)
			d.slots[s].dir = -1
			d.place(c, s, false)
			callbacks++
		}
	}
	return callbacks
}

// place moves slot s to the front of the client's list, or to its back.
func (d *dirCaches) place(client, s int, front bool) {
	sl := d.slots
	p, n := sl[s].prev, sl[s].next
	sl[p].next, sl[n].prev = n, p
	if p = d.head[client]; !front {
		p = sl[p].prev
	}
	n = sl[p].next
	sl[s].prev, sl[s].next = p, n
	sl[n].prev, sl[p].next = s, s
}

// DelegationResult reports the directory-delegation simulation: leases
// grant a client local (message-free) reads and aggregated updates until a
// conflicting access recalls the lease.
type DelegationResult struct {
	// MessageReduction is the fraction of meta-data messages eliminated.
	MessageReduction float64
	// Recalls counts lease recalls (conflict callbacks).
	Recalls int64
	// RecallRatio is recalls per meta-data message.
	RecallRatio float64
}

// SimulateDelegation replays a trace with per-directory read/write leases,
// the standard delegation design the paper builds on: read leases are
// shared (any number of clients may cache and read locally) and recalled
// only by an update; the write lease is exclusive and recalled by any other
// client's access. Acquisitions ride the first access (no extra message);
// operations under a held lease are local.
func SimulateDelegation(recs []Record) DelegationResult {
	recs, dirs, clients := denseIDs(recs)
	words := (clients + 63) / 64
	writer := make([]int32, dirs)         // the exclusive holder's id+1, 0 for none
	readers := make([]uint64, dirs*words) // dir d's read leases: words d*words on
	var local, recalls int64
	// A write lease and read leases never coexist: a write clears the
	// readers, and another client's read ends the write lease first.
	for _, r := range recs {
		own, wr := int32(r.Client+1), &writer[r.Dir]
		rd := readers[r.Dir*words : (r.Dir+1)*words]
		w, bit := r.Client/64, uint64(1)<<(r.Client%64)
		switch {
		case *wr == own || r.Kind == OpRead && rd[w]&bit != 0:
			local++ // own exclusive lease, or a shared one for a read
		case r.Kind == OpRead:
			if *wr != 0 {
				recalls++ // downgrade the exclusive holder
				*wr = 0
			}
			rd[w] |= bit // acquisition rides this access
		default:
			// Recall every other reader and any other writer.
			if *wr != 0 {
				recalls++
			}
			for _, x := range rd {
				recalls += int64(bits.OnesCount64(x))
			}
			recalls -= int64(rd[w] >> (r.Client % 64) & 1)
			clear(rd)
			*wr = own
		}
	}
	res := DelegationResult{Recalls: recalls}
	if total := float64(len(recs)); total > 0 {
		res.MessageReduction, res.RecallRatio = float64(local)/total, float64(recalls)/total
	}
	return res
}

// FormatSharing renders Figure 7 as text.
func FormatSharing(name string, pts []SharingPoint) string {
	s := fmt.Sprintf("Figure 7 (%s): directory sharing by interval length\n", name)
	s += fmt.Sprintf("%-10s %9s %9s %9s %9s\n", "interval", "read-1", "write-1", "read-N", "rw-N")
	for _, p := range pts {
		s += fmt.Sprintf("%-10v %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n",
			p.Interval, p.ReadOne*100, p.WriteOne*100, p.ReadMultiple*100, p.WrittenMultiple*100)
	}
	return s
}
