package sim

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// FuzzSourceMatchesMathRand: for any seed, negative and 0 included, and any
// sequence of bounds (each 4 bytes of ns, folded into 1..1<<31-1), Source's
// Intn gives rand.New(rand.NewSource(seed)).Intn's values draw for draw,
// and the two generators stay in the same state: the next Int63 agrees.
func FuzzSourceMatchesMathRand(f *testing.F) {
	bounds := func(ns ...uint32) []byte {
		b := make([]byte, 0, 4*len(ns))
		for _, n := range ns {
			b = binary.LittleEndian.AppendUint32(b, n)
		}
		return b
	}
	// n = 1<<30+1 (from 1<<30) rejects about half of all values.
	f.Add(int64(42), bounds(28, 28, 9501, 2, 1, 1<<30, 1<<30, 1<<30, 1<<30, 3))
	f.Add(int64(0), bounds(math.MaxInt32, 1<<31+5, 7))
	f.Add(int64(-1), bounds(1000, 999, 6))
	f.Add(int64(math.MinInt64), bounds(5))
	f.Add(int64(math.MaxInt32), bounds(28))
	f.Fuzz(func(t *testing.T, seed int64, ns []byte) {
		got, want := NewSource(seed), rand.New(rand.NewSource(seed))
		// Long enough that the ring wraps: the first 607 draws read only
		// the solved state, later ones read draws of this stream.
		for i := 0; i < 700 || len(ns) >= 4; i++ {
			n := 28
			if len(ns) >= 4 {
				n = 1 + int(binary.LittleEndian.Uint32(ns)%math.MaxInt32)
				ns = ns[4:]
			}
			if a, b := got.Intn(n), want.Intn(n); a != b {
				t.Fatalf("seed %d, draw %d, Intn(%d): %d, math/rand %d", seed, i, n, a, b)
			}
		}
		if a, b := int64(got.next()&math.MaxInt64), want.Int63(); a != b {
			t.Fatalf("seed %d: next Int63 %d, math/rand %d", seed, a, b)
		}
	})
}

// TestSourceIntnRefusesOutOfRange: Intn panics on a bound it does not
// replicate (rand.Intn's Int63n branch) as on a non-positive one.
func TestSourceIntnRefusesOutOfRange(t *testing.T) {
	for _, n := range []int{0, -1, math.MaxInt32 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			NewSource(1).Intn(n)
		}()
	}
}
