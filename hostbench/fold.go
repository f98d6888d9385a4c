package main

import (
	"runtime"
	"strings"
)

// Folding stacks onto layers. Heap and CPU profiles are attributed from
// outside the program: each sampled stack goes to the innermost frame
// that belongs to a simulator package, so allocator, copy and map work
// done by the runtime on a layer's behalf is charged to that layer.

const internalPrefix = "repro/internal/"

var layerSet = func() map[string]bool {
	m := make(map[string]bool, len(layers))
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// layerOf folds one stack, function names leaf first. Frames outside the
// simulator (runtime, standard library, this benchmark) pass to their
// caller; a stack with no simulator frame is "runtime", and a simulator
// package that is not a listed layer is "other".
func layerOf(funcs []string) string {
	for _, fn := range funcs {
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if layerSet[pkg] {
			return pkg
		}
		return "other"
	}
	return "runtime"
}

// heapKey identifies one allocation site of the runtime's memory profile.
type heapKey [32]uintptr

type heapCount struct{ bytes, objects int64 }

// heapSnapshot reads the cumulative allocation profile. The caller runs
// runtime.GC first, which publishes every allocation made so far.
func heapSnapshot() map[heapKey]heapCount {
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	snap := make(map[heapKey]heapCount, len(recs))
	for _, r := range recs {
		c := snap[r.Stack0]
		c.bytes += r.AllocBytes
		c.objects += r.AllocObjects
		snap[r.Stack0] = c
	}
	return snap
}

// heapFold accumulates, by layer, what was allocated between pairs of
// snapshots (the timed regions of the heap-profiled passes).
type heapFold struct {
	byLayer map[string]heapCount
	sites   map[heapKey]string // symbolised once per site
	before  map[heapKey]heapCount
}

func newHeapFold() *heapFold {
	return &heapFold{byLayer: map[string]heapCount{}, sites: map[heapKey]string{}}
}

func (h *heapFold) begin() { h.before = heapSnapshot() }

func (h *heapFold) end() {
	for key, after := range heapSnapshot() {
		prev := h.before[key]
		d := heapCount{after.bytes - prev.bytes, after.objects - prev.objects}
		if d == (heapCount{}) {
			continue
		}
		layer, ok := h.sites[key]
		if !ok {
			layer = layerOf(stackFuncs(key))
			h.sites[key] = layer
		}
		c := h.byLayer[layer]
		c.bytes += d.bytes
		c.objects += d.objects
		h.byLayer[layer] = c
	}
	h.before = nil
}

func (h *heapFold) total() heapCount {
	var t heapCount
	for _, c := range h.byLayer {
		t.bytes += c.bytes
		t.objects += c.objects
	}
	return t
}

// stackFuncs symbolises a profile stack, inlined frames included, leaf
// first.
func stackFuncs(key heapKey) []string {
	n := 0
	for n < len(key) && key[n] != 0 {
		n++
	}
	if n == 0 {
		return nil
	}
	var funcs []string
	frames := runtime.CallersFrames(key[:n])
	for {
		f, more := frames.Next()
		if f.Function != "" {
			funcs = append(funcs, f.Function)
		}
		if !more {
			return funcs
		}
	}
}
