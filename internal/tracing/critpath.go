package tracing

import (
	"cmp"
	"fmt"
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
	// Every span with a parent, sorted by (parent, start, id, index): the
	// children of one span are one contiguous run.
	kids := make([]int32, 0, len(spans))
	for i := range spans {
		if spans[i].Parent != 0 {
			kids = append(kids, int32(i))
		}
	}
	slices.SortFunc(kids, func(a, b int32) int {
		x, y := &spans[a], &spans[b]
		if c := cmp.Compare(x.Parent, y.Parent); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Start, y.Start); c != 0 {
			return c
		}
		if c := cmp.Compare(x.ID, y.ID); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	r := &spans[root]
	out := make(Attribution)
	bill(out, spans, kids, r, r.Start, r.End)
	return out, nil
}

// bill attributes the window [lo, hi) of span s: child-covered time
// recurses, the rest lands on s.Layer. horizon tracks how far billing has
// advanced, clipping each child to its unconsumed remainder.
func bill(out Attribution, spans []Span, kids []int32, s *Span, lo, hi time.Duration) {
	horizon := lo
	i, _ := slices.BinarySearchFunc(kids, s.ID, func(k int32, id int64) int {
		return cmp.Compare(spans[k].Parent, id)
	})
	for ; i < len(kids) && spans[kids[i]].Parent == s.ID; i++ {
		c := &spans[kids[i]]
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
		out[s.Layer] += cs - horizon
		bill(out, spans, kids, c, cs, ce)
		horizon = ce
	}
	if hi > horizon {
		out[s.Layer] += hi - horizon
	}
}
