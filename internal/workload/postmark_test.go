package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// randomTextByteLoop is randomText as it was: one draw per 8-byte stride,
// the stride filled a byte at a time.
func randomTextByteLoop(rng *rand.Rand, n int) []byte {
	const alphabet = "abcdefghijklmnopqrstuvwxyz \n"
	b := make([]byte, n)
	for i := 0; i < n; i += 8 {
		ch := alphabet[rng.Intn(len(alphabet))]
		for j := i; j < i+8 && j < n; j++ {
			b[j] = ch
		}
	}
	return b
}

// TestRandomTextKeepsBytesAndDraws: the one-store-per-stride fill from a
// sim.Source produces the same bytes as the byte loop drawing from math/rand,
// at every length around a stride boundary, and leaves the generator in the
// same state (the pinned file sizes come from the draws that follow).
func TestRandomTextKeepsBytesAndDraws(t *testing.T) {
	got, want := sim.NewSource(42), rand.New(rand.NewSource(42))
	var buf []byte // reused and regrown, as postmarkRun does: stale bytes must not show
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 500, 4096, 9999, 10000, 17, 9} {
		buf = randomText(got, buf, n)
		if a, b := buf, randomTextByteLoop(want, n); !bytes.Equal(a, b) {
			t.Fatalf("n=%d: bytes differ", n)
		}
		if a, b := got.Int31(), want.Int31(); a != b {
			t.Fatalf("n=%d: generators diverged (%d vs %d)", n, a, b)
		}
	}
}

// TestPostMarkNames pins the pool path format the Sprintf-free name builds.
func TestPostMarkNames(t *testing.T) {
	for _, subdirs := range []int{0, 7} {
		p := &postmarkRun{cfg: PostMarkConfig{Dir: "/pm3", Subdirectories: subdirs}}
		for _, i := range []int{0, 9, 10, 12345} {
			want := fmt.Sprintf("/pm3/f%d", i)
			if subdirs > 0 {
				want = fmt.Sprintf("/pm3/s%d/f%d", i%subdirs, i)
			}
			if got := p.name(i); got != want {
				t.Errorf("name(%d) with %d subdirectories = %q, want %q", i, subdirs, got, want)
			}
		}
	}
}
