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

// sharedIntact fails the test if any shared block was written.
func sharedIntact(t *testing.T) {
	t.Helper()
	if err := (*Pool)(nil).SharedIntact(); err != nil {
		t.Fatal(err)
	}
}

// Load hands out the shared block for content that is one byte repeated once
// zero-extended, and a private pool block, zero-extended, for anything else.
func TestPoolLoad(t *testing.T) {
	p := &Pool{Poison: true}
	for i := 0; i < 4; i++ {
		p.Put(make([]byte, BlockSize))
	}
	for v := 0; v < 256; v++ {
		b := p.Load(bytes.Repeat([]byte{byte(v)}, BlockSize))
		if !isShared(b) || b[0] != byte(v) {
			t.Fatalf("a block of %#x loaded into memory of its own", v)
		}
	}
	for _, src := range [][]byte{nil, {}, make([]byte, 100)} {
		if b := p.Load(src); !isShared(b) || b[0] != 0 {
			t.Fatalf("%d zero bytes, zero-extended, did not load as the shared zero block", len(src))
		}
	}
	if p.Len() != 4 {
		t.Fatalf("shared loads took %d blocks from the pool", 4-p.Len())
	}
	short := bytes.Repeat([]byte{7}, 100) // 7s then zeros: mixed
	b := p.Load(short)
	if isShared(b) || !bytes.Equal(b[:100], short) || !bytes.Equal(b[100:], make([]byte, BlockSize-100)) {
		t.Fatal("a short non-zero run did not load as a private zero-extended block")
	}
	mixed := ramp[3 : 3+BlockSize]
	if b := p.Load(mixed); isShared(b) || !bytes.Equal(b, mixed) {
		t.Fatal("mixed bytes did not load as a private copy")
	}
	if p.Len() != 2 {
		t.Fatalf("two private loads left %d of 4 pool blocks, want 2", p.Len())
	}
	sharedIntact(t)
}

// Put refuses a shared block: it is not poisoned and the pool does not grow.
func TestPoolPutRefusesSharedBlocks(t *testing.T) {
	p := &Pool{Poison: true}
	for v := 0; v < 256; v++ {
		p.Put(p.Load(bytes.Repeat([]byte{byte(v)}, BlockSize)))
		p.Put(shared[v][:])
	}
	if p.Len() != 0 {
		t.Fatalf("pool took %d shared blocks", p.Len())
	}
	sharedIntact(t)
}

// Replace gives every combination of current and new content its block: a
// shared one for uniform content (retiring a private block it displaces), the
// private block itself overwritten for mixed content, and a fresh private
// block for mixed content over a shared one, which is never written. PutAll
// gives the retired blocks back; a nil pool retires nothing.
func TestPoolReplace(t *testing.T) {
	p := &Pool{Poison: true}
	var retired [][]byte
	uniformA := bytes.Repeat([]byte{0xA1}, BlockSize)
	mixed := ramp[5 : 5+BlockSize]

	b := p.replace(p.Load(uniformA), bytes.Repeat([]byte{0x42}, BlockSize), &retired)
	if !isShared(b) || b[0] != 0x42 || len(retired) != 0 {
		t.Fatal("uniform over shared: want the new shared block and nothing retired")
	}
	b = p.replace(b, mixed, &retired)
	if isShared(b) || !bytes.Equal(b, mixed) || len(retired) != 0 {
		t.Fatal("mixed over shared: want a private copy and nothing retired")
	}
	priv := b
	b = p.replace(priv, ramp[9:9+BlockSize], &retired)
	if &b[0] != &priv[0] || !bytes.Equal(b, ramp[9:9+BlockSize]) || len(retired) != 0 {
		t.Fatal("mixed over private: want the same block overwritten")
	}
	b = p.replace(priv, []byte("abc"), &retired)
	if &b[0] != &priv[0] || string(b[:3]) != "abc" || !bytes.Equal(b[3:], make([]byte, BlockSize-3)) || len(retired) != 0 {
		t.Fatal("short mixed over private: want the same block, zero-extended")
	}
	b = p.replace(priv, uniformA, &retired)
	if !isShared(b) || b[0] != 0xA1 || len(retired) != 1 || &retired[0][0] != &priv[0] || priv[0] != 'a' {
		t.Fatal("uniform over private: want the shared block, and the private one retired intact")
	}
	if b = p.replace(p.Load(nil), nil, &retired); !isShared(b) || b[0] != 0 || len(retired) != 1 {
		t.Fatal("nothing over shared zeros: want shared zeros")
	}
	if retired = p.putAll(retired); len(retired) != 0 || p.Len() != 1 || priv[0] != 0xEE {
		t.Fatalf("PutAll left %d retired, pool %d", len(retired), p.Len())
	}
	var none *Pool
	if b = none.replace(none.Load(mixed), uniformA, &retired); !isShared(b) || len(retired) != 0 {
		t.Fatal("a nil pool retired a block")
	}
	sharedIntact(t)
}

// Writable leaves a private block alone and gives a shared one a private
// copy, so a partial write never lands in the shared table.
func TestPoolWritable(t *testing.T) {
	p := &Pool{Poison: true}
	priv := p.Load(ramp[:BlockSize])
	if w := p.Writable(priv); &w[0] != &priv[0] {
		t.Fatal("Writable copied a private block")
	}
	for _, v := range []byte{0, 0x37} {
		s := p.Load(bytes.Repeat([]byte{v}, BlockSize))
		w := p.Writable(s)
		if isShared(w) || !bytes.Equal(w, s) {
			t.Fatalf("Writable of shared %#x: want a private copy", v)
		}
		w[10] = 0xEE
	}
	sharedIntact(t)
}
