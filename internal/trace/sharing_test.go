package trace

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// analyzeSharingRef is AnalyzeSharing as it was before it stopped building
// two client sets per directory per window: the reference the count-up-to-two
// version must match exactly.
func analyzeSharingRef(recs []Record, intervals []time.Duration) []SharingPoint {
	var out []SharingPoint
	for _, T := range intervals {
		type dirStat struct {
			readers map[int]bool
			writers map[int]bool
		}
		var acc SharingPoint
		acc.Interval = T
		windows := 0
		start := time.Duration(0)
		i := 0
		for i < len(recs) {
			end := start + T
			stats := map[int]*dirStat{}
			for i < len(recs) && recs[i].At < end {
				r := recs[i]
				ds := stats[r.Dir]
				if ds == nil {
					ds = &dirStat{readers: map[int]bool{}, writers: map[int]bool{}}
					stats[r.Dir] = ds
				}
				if r.Kind == OpRead {
					ds.readers[r.Client] = true
				} else {
					ds.writers[r.Client] = true
				}
				i++
			}
			if len(stats) > 0 {
				var r1, w1, rm, wm int
				for _, ds := range stats {
					if len(ds.readers) == 1 {
						r1++
					}
					if len(ds.writers) == 1 {
						w1++
					}
					if len(ds.readers) > 1 {
						rm++
					}
					distinct := len(ds.writers)
					for cl := range ds.readers {
						if !ds.writers[cl] {
							distinct++
						}
					}
					if len(ds.writers) >= 1 && distinct > 1 {
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

func sharingEqual(t *testing.T, name string, recs []Record, intervals []time.Duration) {
	t.Helper()
	got, want := AnalyzeSharing(recs, intervals), analyzeSharingRef(recs, intervals)
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, reference has %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s at T=%v:\n got %+v\nwant %+v", name, want[i].Interval, got[i], want[i])
		}
	}
}

// TestAnalyzeSharingMatchesReference: exactly equal SharingPoints (the
// floats are sums of the same integer ratios in the same window order) on
// both paper profiles and on random traces that hit every class, including
// a lone client that both reads and writes a directory, gaps of empty
// windows, and windows of a single record.
func TestAnalyzeSharingMatchesReference(t *testing.T) {
	intervals := []time.Duration{4 * time.Second, 16 * time.Second, 64 * time.Second, 256 * time.Second}
	for _, p := range []Profile{EECS(), Campus()} {
		p.Duration = 5 * time.Minute // the reference is slow; a quarter of the trace has every class
		sharingEqual(t, p.Name, Synthesize(p), intervals)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		clients, dirs := 1+rng.Intn(4), 1+rng.Intn(6)
		recs := make([]Record, rng.Intn(400))
		for i := range recs {
			recs[i] = Record{
				At:     time.Duration(rng.Int63n(int64(40 * time.Second))),
				Client: rng.Intn(clients),
				Dir:    rng.Intn(dirs),
				Kind:   OpKind(rng.Intn(2)),
			}
			if rng.Intn(50) == 0 {
				recs[i].At += 5 * time.Minute // a long silent gap
			}
		}
		sort.Slice(recs, func(a, b int) bool { return recs[a].At < recs[b].At })
		sharingEqual(t, "random", recs, []time.Duration{time.Second, 3 * time.Second, time.Minute})
	}
	sharingEqual(t, "empty", nil, intervals)
}
