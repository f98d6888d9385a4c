package sim

import (
	"math"
	"math/rand"
)

// Source is math/rand's seeded generator (rand.NewSource) continued in a
// concrete type: the same stream, drawn without the rand.Source interface.
// That generator is the additive lagged Fibonacci recurrence
//
//	x[k] = x[k-607] + x[k-273] (mod 2^64)
//
// vec holds the last 607 values as a ring: feed indexes x[k-607], which the
// next draw overwrites with x[k], and tap indexes x[k-273].
type Source struct {
	feed, tap int
	vec       [srcLen]uint64
}

const (
	srcLen = 607
	srcTap = 273
)

// NewSource returns the generator rand.NewSource(seed) is, positioned at its
// first draw. It takes that source's first 607 values and solves the 607
// before them backwards, x[k-607] = x[k] - x[k-273], so no seeding table is
// copied: vec[t] ends holding x[t-606], x[1] being the first draw.
func NewSource(seed int64) *Source {
	s := &Source{tap: srcLen - srcTap}
	std := rand.NewSource(seed).(rand.Source64)
	for i := range s.vec {
		s.vec[i] = std.Uint64() // x[i+1]
	}
	for t := srcLen - 1; t >= 0; t-- {
		// x[t-606] = x[t+1] - x[t-272]: x[t-272] is a draw, at t-273, for
		// t >= 273, and a solved value, at t+334, below that.
		j := t + srcLen - srcTap
		if j >= srcLen {
			j -= srcLen
		}
		s.vec[t] -= s.vec[j]
	}
	return s
}

// next returns the next 64-bit value of the stream.
func (s *Source) next() uint64 {
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	if s.feed++; s.feed == srcLen {
		s.feed = 0
	}
	if s.tap++; s.tap == srcLen {
		s.tap = 0
	}
	return x
}

// Int31 is (*rand.Rand).Int31: the top 31 bits of the next 63-bit value.
func (s *Source) Int31() int32 { return int32(s.next() << 1 >> 33) }

// Intn is (*rand.Rand).Intn's draw for 0 < n <= 1<<31-1: a power of two
// masks one value, any other n rejects values above the largest multiple of
// n and takes the remainder. It panics outside that range.
func (s *Source) Intn(n int) int {
	if n <= 0 || n > math.MaxInt32 {
		panic("sim: Intn argument out of range")
	}
	if n&(n-1) == 0 {
		return int(s.Int31() & int32(n-1))
	}
	max := int32(1<<31 - 1 - (1<<31)%uint32(n))
	v := s.Int31()
	for v > max {
		v = s.Int31()
	}
	return int(v % int32(n))
}
