package blockdev

import (
	"bytes"
	"math/rand"
	"testing"
)

// No block is handed out twice without a Put in between, whatever the order
// of Gets and Puts, and the cap holds throughout.
func TestPoolNeverHandsOutABlockTwice(t *testing.T) {
	p := &Pool{}
	rng := rand.New(rand.NewSource(1))
	out := map[*byte][]byte{} // blocks handed out and not put back
	for step := 0; step < 50000; step++ {
		if rng.Intn(5) < 2 && len(out) > 0 {
			for k, b := range out { // any one of them
				delete(out, k)
				p.Put(b)
				break
			}
		} else {
			b := p.Get(false)
			if len(b) != BlockSize || cap(b) != BlockSize {
				t.Fatalf("Get returned len %d cap %d", len(b), cap(b))
			}
			if _, dup := out[&b[0]]; dup {
				t.Fatalf("step %d: block handed out while still held", step)
			}
			out[&b[0]] = b
		}
		if len(p.free) > poolCap {
			t.Fatalf("pool holds %d blocks, cap is %d", len(p.free), poolCap)
		}
	}
	// Return everything (more than the cap): the excess is dropped.
	for len(out) < poolCap+100 {
		b := p.Get(false)
		out[&b[0]] = b
	}
	for _, b := range out {
		p.Put(b)
	}
	if len(p.free) != poolCap {
		t.Fatalf("pool holds %d blocks after %d Puts, want the cap %d", len(p.free), len(out), poolCap)
	}
	seen := map[*byte]bool{}
	for _, b := range p.free {
		if seen[&b[0]] {
			t.Fatal("a block sits in the pool twice")
		}
		seen[&b[0]] = true
	}
}

// Anything that is not exactly one whole block is refused. (A capped
// sub-slice of a larger buffer has the same len and cap as a block of its
// own and would pass; no owner holds one: what arrives in a run or reply
// buffer is copied into a block Get handed out.)
func TestPoolRefusesWrongSizes(t *testing.T) {
	p := &Pool{}
	run := make([]byte, 4*BlockSize)
	for _, b := range [][]byte{
		nil,
		{},
		make([]byte, 100),
		make([]byte, BlockSize-1),
		make([]byte, BlockSize+1),
		make([]byte, 2*BlockSize),
		run[:BlockSize],                      // right length, but the rest of the run hangs off it
		make([]byte, BlockSize, 2*BlockSize), // same
		make([]byte, BlockSize)[:100],
	} {
		p.Put(b)
		if len(p.free) != 0 {
			t.Fatalf("pool kept a slice of len %d cap %d", len(b), cap(b))
		}
	}
	p.Put(make([]byte, BlockSize))
	if len(p.free) != 1 {
		t.Fatal("pool refused a whole block")
	}
}

// Get(true) reads as zeros even when the block comes back poisoned; a nil
// pool allocates and ignores Put.
func TestPoolZeroedPoisonAndNil(t *testing.T) {
	p := &Pool{Poison: true}
	b := p.Get(false)
	copy(b, "live data")
	p.Put(b)
	if !bytes.Equal(b, bytes.Repeat([]byte{0xEE}, BlockSize)) {
		t.Fatal("Put did not poison the block")
	}
	if c := p.Get(false); &c[0] != &b[0] {
		t.Fatal("pool did not hand the released block out again")
	}
	p.Put(b)
	if c := p.Get(true); &c[0] != &b[0] || !bytes.Equal(c, make([]byte, BlockSize)) {
		t.Fatal("Get(true) returned a recycled block that is not zero")
	}

	var none *Pool
	none.Put(make([]byte, BlockSize))
	if c := none.Get(false); len(c) != BlockSize || !bytes.Equal(c, make([]byte, BlockSize)) {
		t.Fatal("nil pool Get did not allocate a zero block")
	}
}
