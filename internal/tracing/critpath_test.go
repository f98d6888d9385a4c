package tracing

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// referenceCriticalPath is the map-based CriticalPath that the index-based
// one replaced, kept as the specification: the last span with rootID is
// the root, children are grouped by parent ID and sorted by (start, id).
func referenceCriticalPath(spans []Span, rootID int64) (Attribution, error) {
	byID := make(map[int64]Span, len(spans))
	children := make(map[int64][]Span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	root, ok := byID[rootID]
	if !ok {
		return nil, fmt.Errorf("tracing: no span with id %d", rootID)
	}
	for _, kids := range children {
		kids := kids
		sort.Slice(kids, func(i, j int) bool {
			if kids[i].Start != kids[j].Start {
				return kids[i].Start < kids[j].Start
			}
			return kids[i].ID < kids[j].ID
		})
	}
	out := make(Attribution)
	referenceBill(out, children, root, root.Start, root.End)
	return out, nil
}

func referenceBill(out Attribution, children map[int64][]Span, s Span, lo, hi time.Duration) {
	horizon := lo
	for _, c := range children[s.ID] {
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
		out[s.Layer.String()] += cs - horizon
		referenceBill(out, children, c, cs, ce)
		horizon = ce
	}
	if hi > horizon {
		out[s.Layer.String()] += hi - horizon
	}
}

// randomForest returns several span trees in one slice with dense IDs, the
// shapes CriticalPath must bill: children that overlap, share a start, or
// stick out of their parent's window on either side; zero-length spans,
// some with children (a detached span closed empty); and, with two trees
// or more, the last root carrying the first root's ID.
func randomForest(rng *rand.Rand) []Span {
	var spans []Span
	var add func(parent int64, start time.Duration, depth int)
	add = func(parent int64, start time.Duration, depth int) {
		var dur time.Duration
		if rng.Intn(6) > 0 { // one span in six is empty
			dur = time.Duration(1 + rng.Intn(100))
		}
		id := int64(len(spans) + 1)
		spans = append(spans, Span{
			ID: id, Parent: parent, Layer: Layers[rng.Intn(len(Layers))],
			Start: start, End: start + dur,
		})
		if depth == 0 {
			return
		}
		var prev time.Duration
		for k := rng.Intn(5); k > 0; k-- {
			cs := start + time.Duration(rng.Intn(int(dur)+21)) - 10
			if k%3 == 0 {
				cs = prev // share a sibling's start
			}
			prev = cs
			add(id, cs, depth-1)
		}
	}
	trees := 1 + rng.Intn(4)
	var roots []int
	for i := 0; i < trees; i++ {
		roots = append(roots, len(spans))
		add(0, time.Duration(rng.Intn(1000)), 1+rng.Intn(4))
	}
	if trees > 1 { // the last tree joins the first under its root's ID
		last, id := roots[trees-1], spans[roots[0]].ID
		for i := last + 1; i < len(spans); i++ {
			if spans[i].Parent == spans[last].ID {
				spans[i].Parent = id
			}
		}
		spans[last].ID = id
	}
	if rng.Intn(2) == 0 { // the root is not first, children precede parents
		rng.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
	}
	return spans
}

// spread returns spans with every ID and parent multiplied by a large
// factor: parent IDs far wider apart than the slice is long, which
// CriticalPath orders by comparison instead of by counting.
func spread(spans []Span) []Span {
	out := slices.Clone(spans)
	for i := range out {
		out[i].ID *= 1 << 40
		out[i].Parent *= 1 << 40
	}
	return out
}

// TestCriticalPathMatchesReference bills every root of random forests with
// both implementations and demands identical attributions, each summing to
// the root's window (the last span with the root's ID). Each forest is
// billed as recorded (dense IDs) and spread out (sparse IDs).
func TestCriticalPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for n := 0; n < 4000; n++ {
		spans := randomForest(rng)
		if n%2 == 1 {
			spans = spread(spans)
		}
		for _, r := range Roots(spans) {
			want, err := referenceCriticalPath(spans, r.ID)
			if err != nil {
				t.Fatal(err)
			}
			got, err := CriticalPath(spans, r.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(got, want) {
				t.Fatalf("forest %d root %d: got %v, want %v\nspans: %+v", n, r.ID, got, want, spans)
			}
			var window time.Duration
			for _, s := range spans {
				if s.ID == r.ID {
					window = s.End - s.Start
				}
			}
			if got.Total() != window {
				t.Fatalf("forest %d root %d: bills %v, window %v", n, r.ID, got.Total(), window)
			}
		}
		if _, err := CriticalPath(spans, -1); err == nil {
			t.Fatalf("forest %d: no error for an absent root", n)
		}
	}
}

// TestCriticalPathsMatchesPerRoot bills every root of random forests (trees
// shuffled into one another, a duplicate root ID, dense and sparse IDs)
// from one index and demands what one CriticalPath call per root returns.
// The last case is a span stream as `repro trace -from` reads it, whose
// three trees interleave line by line.
func TestCriticalPathsMatchesPerRoot(t *testing.T) {
	same := func(name string, spans []Span) []Attribution {
		t.Helper()
		roots := Roots(spans)
		paths, err := CriticalPaths(spans, roots)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range roots {
			want, err := CriticalPath(spans, r.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(paths[i], want) {
				t.Fatalf("%s root %d: got %v, want %v\nspans: %+v", name, r.ID, paths[i], want, spans)
			}
		}
		if _, err := CriticalPaths(spans, []Span{{ID: -1}}); err == nil {
			t.Fatalf("%s: no error for an absent root", name)
		}
		return paths
	}
	rng := rand.New(rand.NewSource(53))
	for n := 0; n < 2000; n++ {
		spans := randomForest(rng)
		if n%2 == 1 {
			spans = spread(spans)
		}
		same(fmt.Sprint("forest ", n), spans)
	}

	var stream strings.Builder
	for _, s := range []Span{
		{ID: 1, Layer: LayerSyscall, Start: 0, End: 100},
		{ID: 2, Layer: LayerSyscall, Start: 10, End: 90},
		{ID: 3, Parent: 1, Layer: LayerRPC, Start: 5, End: 60},
		{ID: 4, Parent: 2, Layer: LayerISCSI, Start: 20, End: 80},
		{ID: 5, Layer: LayerSyscall, Start: 50, End: 70},
		{ID: 6, Parent: 3, Layer: LayerTCP, Start: 10, End: 40},
		{ID: 7, Parent: 5, Layer: LayerCPUClient, Start: 55, End: 65},
		{ID: 8, Parent: 4, Layer: LayerDisk, Start: 30, End: 50},
		{ID: 9, Parent: 1, Layer: LayerCPUClient, Start: 70, End: 95},
	} {
		fmt.Fprintf(&stream, `{"id":%d,"parent":%d,"client":%d,"layer":%q,"op":"op","start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, s.ID%2, s.Layer, s.Start, s.End)
	}
	spans, err := ReadSpans(strings.NewReader(stream.String()))
	if err != nil {
		t.Fatal(err)
	}
	paths := same("interleaved stream", spans.Spans())
	if want := (Attribution{"syscall": 20, "rpc": 25, "tcp": 30, "cpu.client": 25}); !maps.Equal(paths[0], want) {
		t.Errorf("first tree of the stream billed %v, want %v", paths[0], want)
	}
}

// TestCriticalPathDuplicateRootIsLast pins the duplicate-ID rule on a
// fixed case: two roots share ID 1 and the second one is billed.
func TestCriticalPathDuplicateRootIsLast(t *testing.T) {
	spans := []Span{
		{ID: 1, Layer: LayerSyscall, Start: 0, End: 10},
		{ID: 2, Parent: 1, Layer: LayerDisk, Start: 2, End: 6},
		{ID: 1, Layer: LayerSyscall, Start: 100, End: 130},
		{ID: 4, Parent: 1, Layer: LayerRPC, Start: 110, End: 120},
	}
	got, err := CriticalPath(spans, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := Attribution{LayerSyscall.String(): 20, LayerRPC.String(): 10}
	if !maps.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// chain returns one operation of n spans: a root and n-1 children in five
// layers, each child overlapping the one before.
func chain(n int) []Span {
	layers := []Layer{LayerRPC, LayerTCP, LayerLink, LayerCPUServer, LayerDisk}
	spans := []Span{{ID: 1, Layer: LayerSyscall, Start: 0, End: time.Duration(10 * n)}}
	for i := 1; i < n; i++ {
		spans = append(spans, Span{
			ID: int64(i + 1), Parent: 1, Layer: layers[i%len(layers)],
			Start: time.Duration(10 * i), End: time.Duration(10*i + 15),
		})
	}
	return spans
}

// TestCriticalPathAllocsPerTree: billing allocates the same number of
// objects for a 10-span and a 1000-span tree — nothing per span.
func TestCriticalPathAllocsPerTree(t *testing.T) {
	allocs := func(spans []Span) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := CriticalPath(spans, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(chain(10)), allocs(chain(1000))
	t.Logf("%v objects per CriticalPath call", small)
	if small != large {
		t.Fatalf("allocations grow with the tree: %v for 10 spans, %v for 1000", small, large)
	}
}

// TestTracingStreamGrowsByDoubling commits operations across several
// capacity doublings: a Spans() slice taken before each doubling keeps its
// contents, IDs stay dense with parents before children, and Reset starts
// a stream that shares nothing with the old one, again at ID 1.
func TestTracingStreamGrowsByDoubling(t *testing.T) {
	type snapshot struct{ view, copy []Span }
	var snaps []snapshot
	unchanged := func() {
		t.Helper()
		for i, s := range snaps {
			if !reflect.DeepEqual(s.view, s.copy) {
				t.Fatalf("a Spans() slice of %d spans (snapshot %d) was overwritten", len(s.view), i)
			}
		}
	}
	rng := rand.New(rand.NewSource(28))
	tr := New(Config{})
	doublings := 0
	for op := 0; op < 600; op++ {
		before := snapshot{tr.Spans(), slices.Clone(tr.Spans())}
		randomOp(tr, rng, time.Duration(op)*time.Millisecond)
		if grown := cap(tr.Spans()); grown != cap(before.view) {
			doublings++
			snaps = append(snaps, before)
			if grown < 2*cap(before.view) {
				t.Fatalf("capacity grew %d -> %d, want at least double", cap(before.view), grown)
			}
		}
	}
	t.Logf("%d doublings, %d spans", doublings, len(tr.Spans()))
	if doublings < 5 {
		t.Fatalf("only %d capacity doublings in %d spans", doublings, len(tr.Spans()))
	}
	unchanged()
	dense(t, tr.Spans())

	snaps = append(snaps, snapshot{tr.Spans(), slices.Clone(tr.Spans())})
	tr.Reset()
	for op := 0; op < 50; op++ {
		randomOp(tr, rng, time.Duration(op)*time.Millisecond)
	}
	unchanged()
	if tr.Spans()[0].ID != 1 {
		t.Fatalf("stream after Reset starts at ID %d", tr.Spans()[0].ID)
	}
	dense(t, tr.Spans())
}

// randomOp records one operation of 1 to 12 spans through the Tracer API.
func randomOp(tr *Tracer, rng *rand.Rand, at time.Duration) {
	op := tr.BeginOp(at, LayerSyscall, "read", rng.Intn(4))
	open := []SpanRef{op}
	for k := rng.Intn(12); k > 0; k-- {
		switch rng.Intn(4) {
		case 0:
			open = append(open, tr.Begin(at, LayerRPC, "READ"))
		case 1:
			if len(open) > 1 {
				tr.End(open[len(open)-1], at+time.Microsecond)
				open = open[:len(open)-1]
			}
		case 2:
			tr.BeginDetached(at+time.Microsecond, LayerISCSI, "read10") // never ended: closed empty
		default:
			tr.Record(at, at+time.Microsecond, LayerDisk, "read")
		}
	}
	for i := len(open) - 1; i >= 0; i-- {
		tr.End(open[i], at+2*time.Microsecond)
	}
}

func dense(t *testing.T, spans []Span) {
	t.Helper()
	for i, s := range spans {
		if s.ID != int64(i+1) || s.Parent >= s.ID {
			t.Fatalf("span %d: id %d parent %d (want id %d, parent before it)", i, s.ID, s.Parent, i+1)
		}
	}
}

// TestAttributionAddSumsOperations checks that Add folds one operation's
// attribution into a running total layer by layer: a layer only one side
// has is carried over, a layer both have is summed, the total is the sum
// of the two roots' durations, and the added attribution is left as it was.
func TestAttributionAddSumsOperations(t *testing.T) {
	spans := []Span{
		{ID: 1, Layer: LayerSyscall, Start: 0, End: 10},
		{ID: 2, Parent: 1, Layer: LayerRPC, Start: 2, End: 8},
		{ID: 3, Layer: LayerSyscall, Start: 20, End: 50},
		{ID: 4, Parent: 3, Layer: LayerDisk, Start: 25, End: 45},
	}
	sum := Attribution{}
	for _, root := range []int64{1, 3} {
		a, err := CriticalPath(spans, root)
		if err != nil {
			t.Fatal(err)
		}
		before := maps.Clone(a)
		sum.Add(a)
		if !maps.Equal(a, before) {
			t.Fatalf("Add changed its argument: %v, was %v", a, before)
		}
	}
	want := Attribution{LayerSyscall.String(): 4 + 10, LayerRPC.String(): 6, LayerDisk.String(): 20}
	if !maps.Equal(sum, want) {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
	if got := sum.Total(); got != 10+30 {
		t.Fatalf("Total = %v, want the two roots' 40ns", got)
	}
}
