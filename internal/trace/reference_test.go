package trace

import (
	"container/list"
	"time"
)

// The Section 7 simulators as they were before they ran over dense,
// id-indexed tables: maps keyed by directory and client, one list element
// per cached entry and a fresh reader set per delegated write. They are
// kept unchanged, apart from their names, as the reference the dense
// simulators must equal exactly.

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

// refAnalyzeSharing computes the paper's Figure 7 curves: for each interval
// length T, partition the trace into windows of T and classify every
// directory accessed in a window by who read and wrote it; report the mean
// fraction per class, normalized by directories accessed in the window.
func refAnalyzeSharing(recs []Record, intervals []time.Duration) []SharingPoint {
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

// refSimulateMetadataCache replays a trace against per-client LRU directory
// caches with server-driven invalidations: meta-data reads hit the local
// cache (no message); updates always go to the server, which invalidates
// other clients' cached entries (callback messages).
func refSimulateMetadataCache(recs []Record, cacheSize int) CacheSimResult {
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

// refSimulateDelegation replays a trace with per-directory read/write leases,
// the standard delegation design the paper builds on: read leases are
// shared (any number of clients may cache and read locally) and recalled
// only by an update; the write lease is exclusive and recalled by any other
// client's access. Acquisitions ride the first access (no extra message);
// operations under a held lease are local.
func refSimulateDelegation(recs []Record) DelegationResult {
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

// lruCache is an O(1) LRU set of directory ids (the per-client
// strongly-consistent meta-data cache in the Section 7 simulation).
type lruCache struct {
	max     int
	entries map[int]*list.Element
	order   *list.List // front = most recent
}

func newLRUCache(max int) *lruCache {
	if max < 1 {
		max = 1
	}
	return &lruCache{max: max, entries: make(map[int]*list.Element), order: list.New()}
}

// touch reports whether dir is cached, refreshing its recency.
func (l *lruCache) touch(dir int) bool {
	if e, ok := l.entries[dir]; ok {
		l.order.MoveToFront(e)
		return true
	}
	return false
}

// insert caches dir, evicting the least recent entry if full.
func (l *lruCache) insert(dir int) {
	if e, ok := l.entries[dir]; ok {
		l.order.MoveToFront(e)
		return
	}
	if len(l.entries) >= l.max {
		back := l.order.Back()
		if back != nil {
			l.order.Remove(back)
			delete(l.entries, back.Value.(int))
		}
	}
	l.entries[dir] = l.order.PushFront(dir)
}

// remove drops dir if cached, reporting whether it was present.
func (l *lruCache) remove(dir int) bool {
	if e, ok := l.entries[dir]; ok {
		l.order.Remove(e)
		delete(l.entries, dir)
		return true
	}
	return false
}

// len reports occupancy (tests).
func (l *lruCache) len() int { return len(l.entries) }
