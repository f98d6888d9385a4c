package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"testing"
	"time"
)

func TestMedianAndQuantile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.5, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{10, 20, 30, 40, 50}, 0, 10},
		{[]float64{10, 20, 30, 40, 50}, 1, 50},
		{[]float64{10, 20, 30, 40, 50}, 0.25, 20},
		{[]float64{0, 100}, 0.99, 99},
	} {
		if got := quantile(tc.xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("median reordered its argument: %v", xs)
	}
}

// The fold rule on synthetic stacks, leaf first.
func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []string
		want  string
	}{
		{"runtime frame goes to its caller",
			[]string{"runtime.mallocgc", "runtime.growslice", "repro/internal/ext3.(*bcache).get", "repro/internal/nfs.(*Server).Read"},
			"ext3"},
		{"innermost simulator frame wins",
			[]string{"repro/internal/blockdev.(*Store).WriteAt", "repro/internal/ext3.(*FS).flushData", "main.bulkWrite"},
			"blockdev"},
		{"no simulator frame is runtime",
			[]string{"runtime.gcBgMarkWorker", "runtime.goexit"},
			"runtime"},
		{"benchmark and stdlib frames pass to their caller",
			[]string{"fmt.Sprintf", "main.tracedOps.WriteFile", "repro/internal/workload.(*postmarkRun).createFile"},
			"workload"},
		{"benchmark frames alone are runtime",
			[]string{"encoding/json.Marshal", "main.run", "main.main"},
			"runtime"},
		{"unlisted simulator package is other",
			[]string{"runtime.memmove", "repro/internal/xdr.(*Encoder).Bytes", "repro/internal/sunrpc.(*Client).Call"},
			"other"},
		{"generic function",
			[]string{"repro/internal/metrics.sortedKeys[...]", "repro/internal/core.RunTable2"},
			"metrics"},
		{"empty stack", nil, "runtime"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("%s: layerOf = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// Self time on a hand-built tree:
//
//	1 pass      [0,100)
//	  2 phase   [10,70)
//	    3 call  [20,30)
//	    4 call  [40,65)
//	  5 drain   [70,95)
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "phase", Start: 10, End: 70},
		{ID: 3, Parent: 2, Name: "call", Start: 20, End: 30},
		{ID: 4, Parent: 2, Name: "call", Start: 40, End: 65},
		{ID: 5, Parent: 1, Name: "drain", Start: 70, End: 95},
	}
	want := map[int]time.Duration{1: 15, 2: 25, 3: 10, 4: 25, 5: 25}
	got := selfTimes(spans)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var sum time.Duration
	for _, d := range got {
		sum += d
	}
	if sum != spans[0].dur() {
		t.Errorf("self times sum to %v, the root lasted %v", sum, spans[0].dur())
	}
}

func TestSpanLogParentage(t *testing.T) {
	l := newSpanLog()
	l.pass = 3
	a := l.begin("a")
	b := l.begin("b")
	l.end(b)
	c := l.begin("c")
	l.end(c)
	l.end(a)
	d := l.begin("d")
	l.end(d)
	var parents []int
	for _, s := range l.spans {
		parents = append(parents, s.Parent)
		if s.End < s.Start || s.Pass != 3 {
			t.Errorf("span %+v: bad interval or pass", s)
		}
	}
	if want := []int{0, 1, 1, 0}; !reflect.DeepEqual(parents, want) {
		t.Errorf("parents = %v, want %v", parents, want)
	}
	var buf bytes.Buffer
	if err := writeSpans(&buf, l.spans); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != 4 {
		t.Errorf("wrote %d lines, want 4", n)
	}
}

func TestFlatten(t *testing.T) {
	type cell struct {
		Name    string
		Elapsed time.Duration
		Rate    float64
		OK      bool
		hidden  int
	}
	v := struct {
		Cells []cell
		By    map[string]int
	}{
		Cells: []cell{{"a", 5, 1.5, true, 9}},
		By:    map[string]int{"z": 1, "b": 2},
	}
	var got []simValue
	if err := flatten(&got, "r", reflect.ValueOf(v)); err != nil {
		t.Fatal(err)
	}
	want := []simValue{
		{"r.Cells[0].Elapsed", 5}, {"r.Cells[0].Rate", 1.5}, {"r.Cells[0].OK", 1},
		{"r.By[b]", 2}, {"r.By[z]", 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flatten = %v, want %v", got, want)
	}
}

func TestComparePin(t *testing.T) {
	got := []simValue{{"a", 1}, {"b", 2.5}}
	p := &pass{}
	comparePin(p, map[string]float64{"a": 1, "b": 2.5}, got)
	if p.fails != 0 || p.checks != 3 {
		t.Errorf("matching pin: %d of %d checks failed", p.fails, p.checks)
	}
	for name, pinned := range map[string]map[string]float64{
		"edited value": {"a": 1, "b": 2.5000001},
		"missing key":  {"a": 1},
		"stale key":    {"a": 1, "b": 2.5, "c": 3},
		"empty pin":    {},
	} {
		p := &pass{}
		comparePin(p, pinned, got)
		if p.fails == 0 {
			t.Errorf("%s: no check failed", name)
		}
	}
	p = &pass{}
	compareFirst(p, got, []simValue{{"a", 1}, {"b", 2}})
	if p.fails != 1 {
		t.Errorf("pass-to-pass drift: %d checks failed, want 1", p.fails)
	}
}

// A hand-encoded profile: two samples, one labelled untimed.
func TestParseCPUProfile(t *testing.T) {
	var pb []byte
	varint := func(b []byte, v uint64) []byte {
		for v >= 0x80 {
			b = append(b, byte(v)|0x80)
			v >>= 7
		}
		return append(b, byte(v))
	}
	field := func(b []byte, num int, payload []byte) []byte {
		b = varint(b, uint64(num)<<3|2)
		b = varint(b, uint64(len(payload)))
		return append(b, payload...)
	}
	ints := func(num int, vs ...uint64) []byte { // one message holding varint fields
		var b []byte
		for _, v := range vs {
			b = varint(b, uint64(num)<<3)
			b = varint(b, v)
		}
		return b
	}
	strs := []string{"", "samples", "cpu", "runtime.mallocgc", "repro/internal/ext3.(*FS).Mkdir",
		"repro/internal/tcpsim.(*Conn).Transfer", "region", "timed", "untimed"}
	for i, name := range []uint64{3, 4, 5} { // functions 1..3
		pb = field(pb, 5, append(ints(1, uint64(i+1)), ints(2, name)...))
	}
	// Location 1 holds mallocgc inlined into Mkdir; location 2 is Transfer.
	loc1 := ints(1, 1)
	loc1 = field(loc1, 4, ints(1, 1))
	loc1 = field(loc1, 4, ints(1, 2))
	pb = field(pb, 4, loc1)
	pb = field(pb, 4, field(ints(1, 2), 4, ints(1, 3)))
	sample := func(loc, value, label uint64) []byte {
		var packedVals []byte
		packedVals = varint(packedVals, 1)
		packedVals = varint(packedVals, value)
		s := field(nil, 1, varint(nil, loc))
		s = field(s, 2, packedVals)
		return field(s, 3, append(ints(1, 6), ints(2, label)...))
	}
	pb = field(pb, 2, sample(1, 30, 7))
	pb = field(pb, 2, sample(2, 10, 7))
	pb = field(pb, 2, sample(2, 999, 8))
	for _, s := range strs {
		pb = field(pb, 6, []byte(s))
	}
	pb = append(pb, 9<<3|1, 1, 2, 3, 4, 5, 6, 7, 8) // a fixed64 field to skip

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(pb); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	samples, err := parseCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("%d samples, want 3", len(samples))
	}
	if want := []string{"runtime.mallocgc", "repro/internal/ext3.(*FS).Mkdir"}; !reflect.DeepEqual(samples[0].funcs, want) {
		t.Errorf("sample 0 stack = %v, want %v", samples[0].funcs, want)
	}
	if samples[0].value != 30 || samples[0].labels["region"] != "timed" {
		t.Errorf("sample 0 = %+v", samples[0])
	}
	shares := foldCPU(samples)
	if want := map[string]float64{"ext3": 0.75, "tcpsim": 0.25}; !reflect.DeepEqual(shares, want) {
		t.Errorf("shares = %v, want %v (the untimed sample is dropped)", shares, want)
	}
	if _, err := parseCPUProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json equals the program's tables and keeps to the contract's
// limits.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	b := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q/%q, the program has %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, the program has %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		name(m.Name)
		if got := (metricSpec{m.Name, m.Unit, m.Better, m.Bound}); got != endToEnd[i] {
			t.Errorf("end-to-end %d: declared %+v, the program has %+v", i, got, endToEnd[i])
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q or bound %v outside the contract", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, the program has %d (limit 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		if got := (metricSpec{name: m.Name, unit: m.Unit, better: m.Better}); got != perLayer[i] {
			t.Errorf("per-layer %d: declared %+v, the program has %+v", i, got, perLayer[i])
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q or direction %q outside the contract", m.Name, m.Unit, m.Better)
		}
	}
	if !reflect.DeepEqual(b.Paths, []string{"hostbench"}) || !reflect.DeepEqual(b.Command, []string{"bash", "hostbench/run.sh"}) {
		t.Errorf("paths %v / command %v", b.Paths, b.Command)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	// Every layer benchmark feeds a declared metric.
	declared := newMetrics(perLayer)
	for _, lb := range layerBenches {
		if _, ok := declared[lb.metric]; !ok {
			t.Errorf("layer benchmark %s is not a declared metric", lb.metric)
		}
	}
}

func metricNames(specs []metricSpec) []string {
	names := make([]string, 0, len(specs))
	for _, s := range specs {
		names = append(names, s.name)
	}
	sort.Strings(names)
	return names
}

func emitted(res result) []string {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func smokeRunner(t *testing.T, name string) *runner {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	pin, err := loadPin(pinJSON)
	if err != nil {
		t.Fatal(err)
	}
	return &runner{w: w, seed: pinSeed, pinned: pin.Workloads[name], usePin: true,
		stderr: io.Discard, setups: 1, minPasses: 1}
}

// A hand-edited pinned value turns into failed checks, so a change that
// moves a simulated result cannot report failed = 0; the pin as committed
// passes.
func TestEditedPinFails(t *testing.T) {
	r := smokeRunner(t, "postmark")
	if _, err := r.pass(nil); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.attempted < 10 {
		t.Fatalf("committed pin: %d of %d checks failed", r.failed, r.attempted)
	}

	r = smokeRunner(t, "postmark")
	edited := map[string]float64{}
	for k, v := range r.pinned {
		edited[k] = v
	}
	const key = "nfsv3.postmark.Messages"
	if _, ok := edited[key]; !ok {
		t.Fatalf("pin has no %s", key)
	}
	edited[key]++
	r.pinned = edited
	if _, err := r.pass(nil); err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 {
		t.Errorf("edited pin: %d checks failed, want 1", r.failed)
	}
	if res := r.result(nil); res.Correct {
		t.Error("edited pin: result still correct")
	}
}

// One-pass smoke of every workload's end-to-end run: exactly the declared
// names come out, none of them zero, and every check passes.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	rate := runtime.MemProfileRate
	for _, w := range workloads {
		r := smokeRunner(t, w.name)
		res, err := endToEndRun(r, 0.001, time.Now())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		if got, want := emitted(res), metricNames(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: emitted %v, declared %v", w.name, got, want)
		}
		for n, mv := range res.Metrics {
			if mv.Value <= 0 {
				t.Errorf("%s: %s = %v", w.name, n, mv.Value)
			}
		}
	}
	if runtime.MemProfileRate != rate {
		t.Error("the untraced run changed runtime.MemProfileRate")
	}
}

// One-pass smoke of the traced run on the two workloads that between them
// reach every instrument: syscall spans and work counts (postmark), the
// telemetry streams and the on/off ratios (observed).
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the traced phases")
	}
	nonZero := map[string][]string{
		"postmark": {"bench.trace_overhead_ratio", "testbed.syscall_us_p50", "testbed.syscalls_per_pass",
			"testbed.build_ms", "testbed.drain_ms", "ext3.alloc_mb_per_pass", "nfs.kallocs_per_pass",
			"simnet.messages", "sunrpc.calls", "iscsi.commands", "nfs.requests", "simdisk.blocks_written",
			"ext3.cache_hit_ratio", "ext3.journal_commits", "sim.virtual_s_per_pass", "metrics.events",
			"sim.step_ns", "tcpsim.segment_ns", "trace.analyze_ms"},
		"observed": {"core.health_ms", "metrics.summarize_ms", "tracing.critical_path_ms", "metrics.events",
			"tracing.spans", "metrics.on_off_ratio", "tracing.on_off_ratio", "health.on_off_ratio",
			"tracing.alloc_mb_per_pass", "metrics.alloc_mb_per_pass", "health.kallocs_per_pass"},
	}
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil { // the run leaves its spans under the working directory
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for name, must := range nonZero {
		r := smokeRunner(t, name)
		res, err := tracedRun(r, 0.001)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s: %d of %d checks failed", name, res.Failed, res.Attempted)
		}
		if got, want := emitted(res), metricNames(perLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: emitted names differ from the declared ones", name)
		}
		for _, n := range must {
			if res.Metrics[n].Value <= 0 {
				t.Errorf("%s: %s = %v", name, n, res.Metrics[n].Value)
			}
		}
		var cpu float64
		for _, l := range layers {
			cpu += res.Metrics[l+".cpu_share"].Value
		}
		if cpu != 0 && (cpu < 0.999 || cpu > 1.001) {
			t.Errorf("%s: cpu shares sum to %v", name, cpu)
		}
		if _, err := os.Stat(traceDir); err != nil {
			t.Errorf("%s: no span file written: %v", name, err)
		}
	}
}
