package blockdev

import (
	"testing"
)

// slabEntry is a cache entry as the tests see it: who it is and its block.
type slabEntry struct {
	id   int
	data []byte
}

func (e *slabEntry) zero() bool { return e.id == 0 && e.data == nil }

// slabOps drives a Reclaimer through ops against a model of what its cache
// would know: which entries are resident, which are retired and not yet
// reclaimed, and which block each holds. Each op byte picks New, Retire of a
// resident entry, Reinstate of a retired one (resident again, as markDirty
// makes a held buffer), Reclaim or Release. It fails if a slot is live twice,
// if a retired slot is handed out before Reclaim, if an entry loses its id or
// its block while resident or retired, if a freed entry is not zero, if the
// pool gets a block twice or the wrong number of them, or if a chunk comes
// back to the pool, or stays in the slab after Release, holding anything.
func slabOps(t *testing.T, ops []byte, pool *Pool) {
	t.Helper()
	var r Reclaimer[slabEntry]
	r.Pool = pool
	live := map[*slabEntry]int{}      // resident or retired since the last Reclaim, by id
	resident := map[*slabEntry]bool{} // live entries the cache holds
	var order []*slabEntry            // live entries in a fixed order, for picking
	next := 0
	pick := func(b byte, want bool) *slabEntry {
		for i := range order {
			if e := order[(int(b)+i)%len(order)]; resident[e] == want {
				return e
			}
		}
		return nil
	}
	check := func(step int) {
		for e, id := range live {
			if e.id != id || len(e.data) != BlockSize || int(e.data[0]) != id%251 {
				t.Fatalf("step %d: entry %d reads id %d and %d bytes", step, id, e.id, len(e.data))
			}
		}
	}
	for step, op := range ops {
		switch op % 5 {
		case 0: // New
			data := pool.Get(false)
			data[0] = byte(next % 251)
			e := r.New(slabEntry{id: next, data: data})
			if _, dup := live[e]; dup {
				t.Fatalf("step %d: New handed out the slot of live entry %d", step, live[e])
			}
			live[e], resident[e] = next, true
			order = append(order, e)
			next++
		case 1: // Retire a resident entry
			if e := pick(op, true); e != nil {
				resident[e] = false
				r.Retire(e)
			}
		case 2: // Reinstate a retired one
			if e := pick(op, false); e != nil {
				resident[e] = true
			}
		case 3: // Reclaim
			before, freed := pool.Len(), 0
			r.Reclaim(func(e *slabEntry) *[]byte {
				if resident[e] {
					return nil
				}
				return &e.data
			})
			keep := order[:0]
			for _, e := range order {
				if resident[e] {
					keep = append(keep, e)
					continue
				}
				if !e.zero() {
					t.Fatalf("step %d: reclaimed entry %d is not zero", step, live[e])
				}
				delete(live, e)
				delete(resident, e)
				freed++
			}
			order = keep
			if pool != nil && pool.Len() != before+freed {
				t.Fatalf("step %d: Reclaim freed %d entries and put %d blocks", step, freed, pool.Len()-before)
			}
			if len(r.Retired()) != 0 {
				t.Fatalf("step %d: %d entries still retired after Reclaim", step, len(r.Retired()))
			}
		case 4: // Release
			before := pool.Len()
			r.Release(func(e *slabEntry) []byte { return e.data })
			if pool != nil && pool.Len() != before+len(live) {
				t.Fatalf("step %d: Release of %d entries put %d blocks", step, len(live), pool.Len()-before)
			}
			for _, e := range order {
				if !e.zero() {
					t.Fatalf("step %d: released entry %d is not zero", step, live[e])
				}
			}
			clear(live)
			clear(resident)
			order = order[:0]
			if pool != nil && len(r.chunks) != 0 {
				t.Fatalf("step %d: the slab kept %d chunks with a pool", step, len(r.chunks))
			}
			checkChunks(t, r.chunks)
			if pool != nil {
				for _, s := range pool.shelves {
					if s, ok := s.(*[]*[chunkSlots]slabEntry); ok {
						checkChunks(t, *s)
					}
				}
			}
		}
		check(step)
	}
}

// checkChunks fails unless every slot of every chunk is zero.
func checkChunks(t *testing.T, chunks []*[chunkSlots]slabEntry) {
	t.Helper()
	for _, c := range chunks {
		for j := range c {
			if !c[j].zero() {
				t.Fatalf("a free chunk still holds entry %d in slot %d", c[j].id, j)
			}
		}
	}
}

// FuzzSlabMatchesModel runs arbitrary New/Retire/Reinstate/Reclaim/Release
// sequences against the model, on a poisoning pool (first byte odd) or
// without one.
func FuzzSlabMatchesModel(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 1, 3, 0, 2, 4})
	f.Add([]byte{0, 0, 0, 1, 2, 1, 3, 0, 3}) // retired twice, reclaimed once
	f.Add([]byte{1, 0, 0, 1, 2, 3, 0, 0, 4}) // reinstated: kept
	for _, pooled := range []byte{0, 1} {
		long := []byte{pooled} // across several chunks, then back and again
		for i := 0; i < 4*chunkSlots; i++ {
			long = append(long, []byte{0, 0, 0, 1, 6, 0, 11, 3}[i%8])
		}
		f.Add(append(append(long, 4), long[1:]...))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 1000 { // each step checks every live entry
			return
		}
		var pool *Pool
		if ops[0]%2 == 1 {
			pool = &Pool{Poison: true}
		}
		slabOps(t, ops[1:], pool)
	})
}
