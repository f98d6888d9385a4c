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
package trace

import (
	"fmt"
	"math/rand"
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

// upToTwo counts distinct clients as none, one or more than one: all a
// sharing class asks.
type upToTwo struct {
	first int // the only client seen so far, while n == 1
	n     int // 0, 1, or 2 for "two or more"
}

func (s *upToTwo) add(client int) {
	switch {
	case s.n == 0:
		s.first, s.n = client, 1
	case s.n == 1 && s.first != client:
		s.n = 2
	}
}

// dirStat is who touched one directory inside one window.
type dirStat struct{ readers, writers, clients upToTwo }

// AnalyzeSharing computes the paper's Figure 7 curves: for each interval
// length T, partition the trace into windows of T and classify every
// directory accessed in a window by who read and wrote it; report the mean
// fraction per class, normalized by directories accessed in the window.
func AnalyzeSharing(recs []Record, intervals []time.Duration) []SharingPoint {
	if len(intervals) == 0 {
		for t := 4; t <= 1024; t *= 2 {
			intervals = append(intervals, time.Duration(t)*time.Second)
		}
	}
	var out []SharingPoint
	stats := map[int]dirStat{} // cleared per window
	for _, T := range intervals {
		var acc SharingPoint
		acc.Interval = T
		windows := 0
		start := time.Duration(0)
		i := 0
		for i < len(recs) {
			end := start + T
			clear(stats)
			for i < len(recs) && recs[i].At < end {
				r := recs[i]
				ds := stats[r.Dir]
				if r.Kind == OpRead {
					ds.readers.add(r.Client)
				} else {
					ds.writers.add(r.Client)
				}
				ds.clients.add(r.Client)
				stats[r.Dir] = ds
				i++
			}
			if len(stats) > 0 {
				var r1, w1, rm, wm int
				for _, ds := range stats {
					if ds.readers.n == 1 {
						r1++
					}
					if ds.writers.n == 1 {
						w1++
					}
					if ds.readers.n > 1 {
						rm++
					}
					// Read-write shared: updated by someone and touched by
					// more than one distinct client overall.
					if ds.writers.n >= 1 && ds.clients.n > 1 {
						wm++
					}
				}
				n := float64(len(stats))
				acc.ReadOne += float64(r1) / n
				acc.WriteOne += float64(w1) / n
				acc.ReadMultiple += float64(rm) / n
				acc.WrittenMultiple += float64(wm) / n
				windows++
			}
			start = end
		}
		if windows > 0 {
			acc.ReadOne /= float64(windows)
			acc.WriteOne /= float64(windows)
			acc.ReadMultiple /= float64(windows)
			acc.WrittenMultiple /= float64(windows)
		}
		out = append(out, acc)
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
	caches := map[int]*lruCache{}
	get := func(c int) *lruCache {
		l := caches[c]
		if l == nil {
			l = newLRUCache(cacheSize)
			caches[c] = l
		}
		return l
	}
	var reads, readHits, updates, callbacks int64
	for _, r := range recs {
		l := get(r.Client)
		if r.Kind == OpRead {
			reads++
			if l.touch(r.Dir) {
				readHits++
				continue
			}
			l.insert(r.Dir)
		} else {
			updates++
			// The server invalidates every other client's cached entry.
			for c, other := range caches {
				if c == r.Client {
					continue
				}
				if other.remove(r.Dir) {
					callbacks++
				}
			}
		}
	}
	total := reads + updates
	res := CacheSimResult{CacheSize: cacheSize}
	if total > 0 {
		res.Reduction = float64(readHits) / float64(total)
	}
	if total > 0 {
		res.CallbackRatio = float64(callbacks) / float64(total)
	}
	return res
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
	type dirLease struct {
		writer  int // -1 = none
		readers map[int]bool
	}
	leases := map[int]*dirLease{}
	get := func(dir int) *dirLease {
		l := leases[dir]
		if l == nil {
			l = &dirLease{writer: -1, readers: map[int]bool{}}
			leases[dir] = l
		}
		return l
	}
	var local, total, recalls int64
	for _, r := range recs {
		total++
		l := get(r.Dir)
		if r.Kind == OpRead {
			if l.writer != -1 && l.writer != r.Client {
				recalls++ // downgrade the exclusive holder
				l.writer = -1
			}
			if l.readers[r.Client] || l.writer == r.Client {
				local++ // shared (or own exclusive) lease held
			} else {
				l.readers[r.Client] = true // acquisition rides this access
			}
		} else {
			if l.writer == r.Client && len(l.readers) == 0 {
				local++ // exclusive lease held: aggregated local update
				continue
			}
			// Recall every other reader and any other writer.
			for c := range l.readers {
				if c != r.Client {
					recalls++
				}
			}
			if l.writer != -1 && l.writer != r.Client {
				recalls++
			}
			l.readers = map[int]bool{}
			l.writer = r.Client
		}
	}
	res := DelegationResult{Recalls: recalls}
	if total > 0 {
		res.MessageReduction = float64(local) / float64(total)
		res.RecallRatio = float64(recalls) / float64(total)
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
