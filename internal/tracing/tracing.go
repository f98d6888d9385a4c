// Package tracing is the virtual-time distributed tracing subsystem: every
// traced operation yields a causally linked span tree covering each layer
// the op crossed — syscall surface, cache decision, RPC or iSCSI exchange,
// transport legs, link frames, bottleneck queues, CPU service and disk
// phases — in the simulation's own virtual clock. Where internal/metrics
// answers "how much" (counters over a window), tracing answers "why" (which
// layer a single slow op spent its nanoseconds in), mechanizing the
// packet-trace methodology Radkov et al. applied by hand in Sections 5/6.
//
// The tracer is sampling-aware (every op, every Nth, or only ops above a
// latency threshold) and strictly zero-cost when disabled: every method is
// safe on a nil *Tracer and allocates nothing, so instrumented layers call
// unconditionally. Span trees export as validated JSONL (jsonl.go, same
// conventions as docs/METRICS.md) or Chrome trace_event JSON loadable in
// Perfetto (chrome.go); CriticalPath (critpath.go) bills each nanosecond of
// an op's latency to exactly one layer. See docs/TRACING.md.
package tracing

import (
	"slices"
	"strconv"
	"time"
)

// Layer names the layer that did a span's work. The vocabulary is fixed
// (docs/TRACING.md); the critical-path analyzer and repro trace group by
// it, its String form is what the JSONL and Chrome exports carry, and
// Span.validate rejects anything outside it (the zero Layer included).
type Layer uint8

// Layer vocabulary, in display order (client to platter).
const (
	LayerSyscall   Layer = iota + 1 // testbed.Client syscall surface (root spans)
	LayerCache                      // ext3 buffer-cache miss handling
	LayerLock                       // lock/reservation exchanges + delegation recall waits
	LayerRPC                        // sunrpc exchange (slot waits, per-proc spans)
	LayerISCSI                      // iSCSI command exchange (initiator or MC/S session)
	LayerUDP                        // NFS datagram transport leg (incl. retransmit waits)
	LayerTCP                        // virtual-time or fluid TCP transport leg
	LayerLink                       // simnet frame/segment serialization + propagation
	LayerQueue                      // shared-bottleneck (netqueue) occupancy
	LayerCPUClient                  // client CPU service
	LayerCPUServer                  // server CPU service
	LayerDisk                       // simdisk RAID-5 phases
)

// Layers lists the vocabulary in display order (client to platter).
var Layers = []Layer{
	LayerSyscall, LayerCache, LayerLock, LayerRPC, LayerISCSI, LayerUDP,
	LayerTCP, LayerLink, LayerQueue, LayerCPUClient, LayerCPUServer,
	LayerDisk,
}

// String returns the layer's name in the vocabulary.
func (l Layer) String() string {
	switch l {
	case LayerSyscall:
		return "syscall"
	case LayerCache:
		return "cache"
	case LayerLock:
		return "lock"
	case LayerRPC:
		return "rpc"
	case LayerISCSI:
		return "iscsi"
	case LayerUDP:
		return "udp"
	case LayerTCP:
		return "tcp"
	case LayerLink:
		return "link"
	case LayerQueue:
		return "queue"
	case LayerCPUClient:
		return "cpu.client"
	case LayerCPUServer:
		return "cpu.server"
	case LayerDisk:
		return "disk"
	}
	return "layer(" + strconv.Itoa(int(l)) + ")"
}

// valid reports whether l is in the vocabulary.
func (l Layer) valid() bool { return l >= LayerSyscall && l <= LayerDisk }

// layerNamed returns the layer whose String is name.
func layerNamed(name string) (Layer, bool) {
	for _, l := range Layers {
		if l.String() == name {
			return l, true
		}
	}
	return 0, false
}

// Span is one timed interval of work in one layer, causally linked to the
// span that caused it. IDs are dense and positive; a root span (one client
// operation) has Parent 0. Times are virtual nanoseconds from simulated
// boot, so identical runs yield identical spans. A span holds no pointer:
// its op name and tags are indices into the name table and tag arena of
// the Tracer that recorded (or decoded) it, which resolves them
// (Tracer.Op, WriteSpans, WriteChrome), so a stream of spans costs the
// garbage collector nothing to scan.
type Span struct {
	ID     int64
	Parent int64
	Start  time.Duration
	End    time.Duration
	Client int32
	Op     uint32 // index into the owning Tracer's name table
	tags   uint32 // the span's newest tag in the Tracer's arena; 0 for none
	Layer  Layer
}

// tag is one key/value pair in a Tracer's tag arena; next chains a span's
// tags, newest first, and 0 ends the chain.
type tag struct{ key, val, next uint32 }

// SpanRef is a handle to a span under construction. The zero value is
// invalid (returned by a nil or sampling-out tracer) and safe to pass back
// into End/SetTag. Refs are only meaningful until the enclosing root
// operation ends.
type SpanRef struct{ idx int32 }

// valid reports whether the ref names a live span.
func (r SpanRef) valid() bool { return r.idx != 0 }

// Config selects which operations a Tracer keeps.
type Config struct {
	// Every keeps one root operation in every Every (0 or 1 = every op).
	Every int64
	// Slow keeps only root operations at least this long — exemplar
	// tracing for tail hunting (0 = keep all sampled ops).
	Slow time.Duration
}

// Tracer records span trees for client operations in virtual time. One
// tracer is shared by every layer of a testbed or cluster: the simulation
// executes one operation's whole protocol path synchronously on one call
// stack, so a single span stack yields correct causal parentage. All
// methods are nil-safe; a nil *Tracer is the documented "tracing off"
// state and costs nothing (no allocations, enforced by benchmark).
type Tracer struct {
	cfg    Config
	spans  []Span // committed spans, dense IDs, parents precede children
	cur    []Span // tentative spans of the in-flight root op
	stack  []int  // indices into cur of the open Begin spans
	skip   int    // >0: inside a sampled-out root op (counts nesting)
	ops    int64  // root ops seen (sampling counter)
	nextID int64  // last committed span ID
	client int    // client id of the in-flight root op

	// Neither the name table nor the tag arena drops an entry a committed
	// span uses (a discarded op's tags go with it), so spans of a slice
	// returned before a later commit or Reset still resolve.
	names []string          // op names, tag keys and values; names[0] is ""
	index map[string]uint32 // position of each name in names
	tags  []tag             // tag arena; tags[0] is unused
	mark  int               // len(tags) when the in-flight root op began
}

// New returns a Tracer with the given sampling config.
func New(cfg Config) *Tracer {
	return &Tracer{
		cfg:   cfg,
		names: []string{""},
		index: map[string]uint32{"": 0},
		tags:  make([]tag, 1),
	}
}

// intern returns name's position in the name table, adding it if new.
func (t *Tracer) intern(name string) uint32 {
	if i, ok := t.index[name]; ok {
		return i
	}
	i := uint32(len(t.names))
	t.names = append(t.names, name)
	t.index[name] = i
	return i
}

// Op returns the operation name of s, a span t recorded or decoded.
func (t *Tracer) Op(s Span) string {
	if t == nil || int(s.Op) >= len(t.names) {
		return ""
	}
	return t.names[s.Op]
}

// tag returns the value of s's tag key, or "" if s has none.
func (t *Tracer) tag(s Span, key string) string {
	for i := s.tags; i != 0; i = t.tags[i].next {
		if t.names[t.tags[i].key] == key {
			return t.names[t.tags[i].val]
		}
	}
	return ""
}

// addTag sets key to val on *s, replacing an earlier value of key.
func (t *Tracer) addTag(s *Span, key, val uint32) {
	for i := s.tags; i != 0; i = t.tags[i].next {
		if t.tags[i].key == key {
			t.tags[i].val = val
			return
		}
	}
	t.tags = append(t.tags, tag{key: key, val: val, next: s.tags})
	s.tags = uint32(len(t.tags) - 1)
}

// Enabled reports whether the tracer is currently recording (non-nil and
// not inside a sampled-out operation). Call sites use it to skip expensive
// tag formatting.
func (t *Tracer) Enabled() bool { return t != nil && t.skip == 0 }

// BeginOp opens the root span for one client operation — the only way a
// root is born. The client id tags every span of the resulting tree.
// Sampling decisions happen here: a sampled-out op traces nothing until
// its matching End. Inside an already-open operation it behaves as Begin.
func (t *Tracer) BeginOp(now time.Duration, layer Layer, op string, client int) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	if t.skip > 0 {
		t.skip++
		return SpanRef{}
	}
	if len(t.stack) > 0 {
		return t.Begin(now, layer, op)
	}
	t.client = client
	t.ops++
	if t.cfg.Every > 1 && (t.ops-1)%t.cfg.Every != 0 {
		t.skip = 1
		return SpanRef{}
	}
	t.mark = len(t.tags)
	t.cur = append(t.cur[:0], Span{Layer: layer, Op: t.intern(op), Start: now})
	t.stack = append(t.stack, 0)
	return SpanRef{idx: 1}
}

// Begin opens a span at now, parented to the innermost open span, and
// returns its ref. Every Begin must be matched by an End (LIFO); for
// completed intervals or async completions use Record instead. Outside any
// open operation it records nothing (like Record): mount-time and
// background protocol activity never starts a trace of its own.
func (t *Tracer) Begin(now time.Duration, layer Layer, op string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	return t.begin(now, layer, op)
}

// begin is Begin on a tracer. The methods that open spans keep their work
// in a second method, so that they inline: with tracing off a call costs a
// nil test.
func (t *Tracer) begin(now time.Duration, layer Layer, op string) SpanRef {
	if t.skip > 0 {
		t.skip++
		return SpanRef{}
	}
	ref := t.add(now, 0, layer, op)
	if ref.valid() {
		t.stack = append(t.stack, int(ref.idx)-1)
	}
	return ref
}

// End closes the span ref at now. Closing a root op commits (or, under
// slow-op sampling, discards) the whole tentative tree.
func (t *Tracer) End(ref SpanRef, now time.Duration) {
	if t == nil {
		return
	}
	if t.skip > 0 {
		t.skip--
		return
	}
	if !ref.valid() {
		return
	}
	i := int(ref.idx) - 1
	t.cur[i].End = now
	if n := len(t.stack); n > 0 && t.stack[n-1] == i {
		t.stack = t.stack[:n-1]
	}
	if len(t.stack) == 0 {
		t.commit()
	}
}

// Record adds an already-completed span parented to the innermost open
// span, without touching the LIFO stack — the shape for synchronous leaf
// intervals (link frames, CPU service, disk phases) and for async or
// interleaved completions (MC/S pipes, read-ahead) where Begin/End nesting
// does not hold. Outside any open operation it records nothing.
func (t *Tracer) Record(start, end time.Duration, layer Layer, op string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	return t.add(start, end, layer, op)
}

// BeginDetached opens a span parented to the innermost open span without
// joining the LIFO stack — the covering span for pipelined work (MC/S
// sub-commands) whose interval outlives any one synchronous step and whose
// completions interleave out of issue order. Close it with EndDetached;
// while one synchronous slice of its work executes, bracket the slice with
// Enter/Exit so the spans that slice records nest under it. Outside any
// open operation it records nothing, like Record.
func (t *Tracer) BeginDetached(now time.Duration, layer Layer, op string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	return t.add(now, 0, layer, op)
}

// add appends a span parented to the innermost open span to the in-flight
// tree; inside a sampled-out op or outside any op it records nothing.
func (t *Tracer) add(start, end time.Duration, layer Layer, op string) SpanRef {
	if t.skip > 0 || len(t.stack) == 0 {
		return SpanRef{}
	}
	parent := t.stack[len(t.stack)-1] + 1
	t.cur = append(t.cur, Span{Parent: int64(parent), Layer: layer, Op: t.intern(op), Start: start, End: end})
	return SpanRef{idx: int32(len(t.cur))}
}

// EndDetached closes a detached span at now. Unlike End it never touches
// the LIFO stack or the sampling nesting counter, so it is safe to call
// from a different synchronous slice than the BeginDetached.
func (t *Tracer) EndDetached(ref SpanRef, now time.Duration) {
	if t == nil || !ref.valid() {
		return
	}
	t.cur[int(ref.idx)-1].End = now
}

// Enter pushes a detached span onto the LIFO stack: spans recorded by the
// current synchronous slice of its work become its children. Every Enter
// must be matched by an Exit on the same ref within the same slice;
// Enter/Exit pairs nest like Begin/End.
func (t *Tracer) Enter(ref SpanRef) {
	if t == nil || !ref.valid() {
		return
	}
	t.stack = append(t.stack, int(ref.idx)-1)
}

// Exit pops the span pushed by the matching Enter. The span stays open —
// only EndDetached closes it.
func (t *Tracer) Exit(ref SpanRef) {
	if t == nil || !ref.valid() {
		return
	}
	if n := len(t.stack); n > 0 && t.stack[n-1] == int(ref.idx)-1 {
		t.stack = t.stack[:n-1]
	}
}

// SetTag attaches a key/value to a live span ref. Kept separate from
// Begin/Record so the disabled path never materializes tag arguments.
func (t *Tracer) SetTag(ref SpanRef, k, v string) {
	if t == nil || !ref.valid() {
		return
	}
	t.setTag(ref, k, v)
}

// setTag is SetTag on a live span, kept out of it for the reason begin is.
func (t *Tracer) setTag(ref SpanRef, k, v string) {
	t.addTag(&t.cur[int(ref.idx)-1], t.intern(k), t.intern(v))
}

// commit moves the tentative tree into the committed stream, assigning
// dense IDs (parents precede children by construction) and stamping every
// span with the root's client id. Under slow-op sampling a root faster
// than the threshold is discarded instead.
func (t *Tracer) commit() {
	if len(t.cur) == 0 {
		return
	}
	root := t.cur[0]
	if t.cfg.Slow > 0 && root.End-root.Start < t.cfg.Slow {
		t.cur = t.cur[:0]
		t.tags = t.tags[:t.mark]
		return
	}
	if need := len(t.spans) + len(t.cur); need > cap(t.spans) {
		// Double into a new array, copying the stream once. Slices
		// Spans returned earlier keep the old array, which is never
		// written again. Span holds no pointer, so growing through
		// append clears only the tail the copy leaves, and the
		// collector never scans the array.
		t.spans = slices.Grow(t.spans, max(2*cap(t.spans), need)-len(t.spans))
	}
	base := t.nextID
	for i, s := range t.cur {
		if s.End < s.Start {
			// A detached span abandoned by an error path (its pipeline
			// died before EndDetached): close it empty so the stream
			// stays schema-valid.
			s.End = s.Start
		}
		s.ID = base + int64(i) + 1
		if s.Parent > 0 {
			s.Parent += base
		}
		s.Client = int32(t.client)
		t.spans = append(t.spans, s)
	}
	t.nextID += int64(len(t.cur))
	t.cur = t.cur[:0]
}

// Spans returns the committed spans (do not mutate). Valid any time; the
// in-flight operation's tentative spans are not included. Later commits
// and Reset never change the spans of a slice already returned.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Reset discards all committed and tentative state, including the ID and
// sampling counters — used to separate an unmeasured setup phase from the
// measured window. The name table and tag arena stay, so spans returned
// before the Reset still resolve.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.spans = nil
	t.cur = t.cur[:0]
	t.stack = t.stack[:0]
	t.skip = 0
	t.ops = 0
	t.nextID = 0
}
