package tracing

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"
)

// Attribution maps layer name to the virtual time billed to it.
type Attribution map[string]time.Duration

// Total sums the billed time across layers.
func (a Attribution) Total() time.Duration {
	var t time.Duration
	for _, d := range a {
		t += d
	}
	return t
}

// Add accumulates another attribution into a.
func (a Attribution) Add(b Attribution) {
	for l, d := range b {
		a[l] += d
	}
}

// Roots returns the root spans (Parent == 0) in ID order.
func Roots(spans []Span) []Span {
	var roots []Span
	for _, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, s)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ID < roots[j].ID })
	return roots
}

// CriticalPath bills every nanosecond of the operation rooted at rootID to
// exactly one layer: within a span's interval, time covered by a child is
// billed (recursively) inside that child, and uncovered time is billed to
// the span's own layer. Children are walked in start order (ID, then
// record order, breaking ties), each clipped to the time not already
// consumed by an earlier sibling — so overlapping children (pipelined MC/S
// commands, read-ahead) never double-bill. The attribution always sums
// exactly to the root's End-Start. When several spans share rootID the
// last one is the root; a span's children are every span naming its ID as
// parent.
func CriticalPath(spans []Span, rootID int64) (Attribution, error) {
	root := -1
	for i := range spans {
		if spans[i].ID == rootID {
			root = i
		}
	}
	if root < 0 {
		return nil, fmt.Errorf("tracing: no span with id %d", rootID)
	}
	return indexChildren(spans).bill(spans, root), nil
}

// CriticalPaths is CriticalPath for each of roots (the spans Roots
// returns, or any spans of spans), in order, billed from one index of the
// children: linear in the spans, where a CriticalPath call per root
// re-indexes them all for every root.
func CriticalPaths(spans, roots []Span) ([]Attribution, error) {
	last := make(map[int64]int, len(roots)) // the span each root ID bills
	for _, r := range roots {
		last[r.ID] = -1
	}
	for i := range spans {
		if _, ok := last[spans[i].ID]; ok {
			last[spans[i].ID] = i
		}
	}
	kids := indexChildren(spans)
	paths := make([]Attribution, len(roots))
	for i, r := range roots {
		if last[r.ID] < 0 {
			return nil, fmt.Errorf("tracing: no span with id %d", r.ID)
		}
		paths[i] = kids.bill(spans, last[r.ID])
	}
	return paths, nil
}

// bill attributes the tree under spans[root], one map per call: every
// layer billed at least once (a zero bill included).
func (c children) bill(spans []Span, root int) Attribution {
	r := &spans[root]
	b := biller{spans: spans, kids: c}
	b.bill(r, r.Start, r.End)
	out := b.other
	if out == nil {
		out = make(Attribution, bits.OnesCount16(b.touched))
	}
	for set := b.touched; set != 0; set &= set - 1 {
		l := Layer(bits.TrailingZeros16(set))
		out[l.String()] = b.sum[l]
	}
	return out
}

// children indexes every span with a parent, sorted by (parent, start, id,
// index), so the children of one span are one contiguous run of order.
// When the parent IDs span a range not much wider than the slice (a
// committed tree's do), a counting sort groups them, each group is then
// sorted on its own, and ends[p-lo] is where parent p's run ends;
// otherwise one comparison sort orders them all and a binary search finds
// a run.
type children struct {
	order []int32
	lo    int64
	ends  []int32
}

func indexChildren(spans []Span) children {
	n := 0
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			n++
			lo, hi = min(lo, p), max(hi, p)
		}
	}
	if n == 0 {
		return children{}
	}
	if d := hi - lo; d < 0 || d >= int64(2*len(spans)+64) { // d < 0: the width overflowed
		order := make([]int32, 0, n)
		for i := range spans {
			if spans[i].Parent != 0 {
				order = append(order, int32(i))
			}
		}
		slices.SortFunc(order, func(a, b int32) int {
			if c := cmp.Compare(spans[a].Parent, spans[b].Parent); c != 0 {
				return c
			}
			return startOrder(spans, a, b)
		})
		return children{order: order}
	}
	// One allocation: the order, then one count per parent ID in
	// [lo-1, hi] that the prefix sum turns into run ends.
	buf := make([]int32, n+int(hi-lo)+2)
	order, ends := buf[:n], buf[n:]
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			ends[p-lo+1]++
		}
	}
	for i := 1; i < len(ends); i++ {
		ends[i] += ends[i-1]
	}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			order[ends[p-lo]] = int32(i)
			ends[p-lo]++
		}
	}
	ends = ends[:hi-lo+1]
	from := int32(0)
	siblings := func(a, b int32) int { return startOrder(spans, a, b) }
	for _, to := range ends {
		if to-from > 1 {
			slices.SortFunc(order[from:to], siblings)
		}
		from = to
	}
	return children{order: order, lo: lo, ends: ends}
}

// of returns the children of the span with ID id, in start order.
func (c children) of(spans []Span, id int64) []int32 {
	if c.ends != nil {
		if id < c.lo || id-c.lo >= int64(len(c.ends)) {
			return nil
		}
		from := int32(0)
		if id > c.lo {
			from = c.ends[id-c.lo-1]
		}
		return c.order[from:c.ends[id-c.lo]]
	}
	i, _ := slices.BinarySearchFunc(c.order, id, func(k int32, id int64) int {
		return cmp.Compare(spans[k].Parent, id)
	})
	j := i
	for j < len(c.order) && spans[c.order[j]].Parent == id {
		j++
	}
	return c.order[i:j]
}

// startOrder orders siblings a and b by (start, id, index).
func startOrder(spans []Span, a, b int32) int {
	x, y := &spans[a], &spans[b]
	if c := cmp.Compare(x.Start, y.Start); c != 0 {
		return c
	}
	if c := cmp.Compare(x.ID, y.ID); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// biller accumulates one CriticalPath call's bills in an array indexed by
// Layer, with a bit set of the layers billed. A layer outside the
// vocabulary (which no Tracer records and Validate rejects) is billed by
// name in other.
type biller struct {
	spans   []Span
	kids    children
	sum     [LayerDisk + 1]time.Duration
	touched uint16
	other   Attribution
}

func (b *biller) add(l Layer, d time.Duration) {
	if int(l) >= len(b.sum) {
		if b.other == nil {
			b.other = make(Attribution)
		}
		b.other[l.String()] += d
		return
	}
	b.sum[l] += d
	b.touched |= 1 << l
}

// bill attributes the window [lo, hi) of span s: child-covered time
// recurses, the rest lands on s.Layer. horizon tracks how far billing has
// advanced, clipping each child to its unconsumed remainder.
func (b *biller) bill(s *Span, lo, hi time.Duration) {
	horizon := lo
	for _, k := range b.kids.of(b.spans, s.ID) {
		c := &b.spans[k]
		cs, ce := c.Start, c.End
		if cs < horizon {
			cs = horizon
		}
		if ce > hi {
			ce = hi
		}
		if ce <= cs {
			continue
		}
		b.add(s.Layer, cs-horizon)
		b.bill(c, cs, ce)
		horizon = ce
	}
	if hi > horizon {
		b.add(s.Layer, hi-horizon)
	}
}
