package trace

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// section7Equal requires all three simulators to equal their references
// exactly on recs. nil intervals selects the default ones.
func section7Equal(t testing.TB, name string, recs []Record, intervals []time.Duration, sizes []int) {
	t.Helper()
	got, want := AnalyzeSharing(recs, intervals), refAnalyzeSharing(recs, intervals)
	if len(got) != len(want) {
		t.Fatalf("%s: %d sharing points, reference has %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: sharing at T=%v:\n got %+v\nwant %+v", name, want[i].Interval, got[i], want[i])
		}
	}
	for _, size := range sizes {
		if got, want := SimulateMetadataCache(recs, size), refSimulateMetadataCache(recs, size); got != want {
			t.Errorf("%s: cache of %d:\n got %+v\nwant %+v", name, size, got, want)
		}
	}
	if got, want := SimulateDelegation(recs), refSimulateDelegation(withoutNoWriterID(recs)); got != want {
		t.Errorf("%s: delegation:\n got %+v\nwant %+v", name, got, want)
	}
}

// withoutNoWriterID renames client -1, which the reference delegation
// table uses to mean "no writer", to an id no other record uses. The dense
// table marks "no writer" outside the id space, so -1 is a client like any
// other there.
func withoutNoWriterID(recs []Record) []Record {
	var out []Record
	for i, r := range recs {
		if r.Client == -1 {
			if out == nil {
				out = append([]Record(nil), recs...)
			}
			out[i].Client = math.MinInt
		}
	}
	if out == nil {
		return recs
	}
	return out
}

// TestSection7MatchesReference: the dense simulators equal the map-based
// references on random profiles (1 to 64 clients, 1 to 10^5 directories),
// some with silent gaps, with the default and with explicit intervals, at
// cache sizes from 0 up.
func TestSection7MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	trials := 24
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		p := Profile{
			Name:            "random",
			Clients:         1 + rng.Intn(64),
			Directories:     1 + rng.Intn(100000),
			Duration:        time.Duration(5+rng.Intn(40)) * time.Second,
			OpsPerSec:       float64(50 + rng.Intn(1000)),
			WriteFraction:   rng.Float64() * 0.6,
			HomeDirFraction: rng.Float64(),
			SharedReadBias:  rng.Float64(),
			Seed:            rng.Int63(),
		}
		var intervals []time.Duration
		if trial%2 == 1 {
			// At least 10 ms: the reference steps through every empty window.
			for k := 1 + rng.Intn(4); k > 0; k-- {
				intervals = append(intervals, 10*time.Millisecond+time.Duration(rng.Int63n(int64(20*time.Second))))
			}
		}
		recs := Synthesize(p)
		if trial%4 >= 2 {
			// Silent gaps of up to a minute leave windows empty.
			gap := time.Duration(0)
			for i := range recs {
				if rng.Intn(200) == 0 {
					gap += time.Duration(rng.Int63n(int64(time.Minute)))
				}
				recs[i].At += gap
			}
		}
		sizes := []int{0, 1, 1 + rng.Intn(16), 64 + rng.Intn(4096)}
		section7Equal(t, p.Name, recs, intervals, sizes)
	}
	for _, p := range []Profile{EECS(), Campus()} {
		p.Duration = 30 * time.Second
		section7Equal(t, p.Name, Synthesize(p), nil, []int{16, 1024})
	}
	section7Equal(t, "empty", nil, nil, []int{0, 4})
}

// fuzzTrace decodes fuzz input into a sorted trace. A five-byte header
// picks the client count (1 to 200, so more than one bitset word), the
// cache size, the id shapes and two intervals of 1 to 256 ms (or the
// default intervals); every further four bytes are one record: time step
// and kind, client, directory.
func fuzzTrace(data []byte) (recs []Record, cacheSize int, intervals []time.Duration) {
	if len(data) < 5 {
		return nil, 0, nil
	}
	clients, flags := 1+int(data[0])%200, data[2]
	cacheSize = int(data[1]) % 64
	if flags&0x10 == 0 {
		intervals = []time.Duration{
			time.Duration(1+int(data[3])) * time.Millisecond,
			time.Duration(1+int(data[4])) * time.Millisecond,
		}
	}
	body := data[5:]
	n := len(body) / 4
	recs = make([]Record, n)
	at := time.Duration(0)
	for i := range recs {
		a, b, v := body[4*i], int(body[4*i+1]), int(body[4*i+2])<<8|int(body[4*i+3])
		at += time.Duration(a>>1) * time.Millisecond / 4
		client := b % clients
		switch flags >> 2 & 3 {
		case 1:
			client -= clients / 2 // some negative, -1 among them
		case 2:
			client <<= 33
		}
		dir := v % (n + 1)
		switch flags & 3 {
		case 1:
			dir = 1<<40 + v
		case 2:
			dir = v - 1000
		case 3:
			dir = v<<24 | b
		}
		recs[i] = Record{At: at, Client: client, Dir: dir, Kind: OpKind(a & 1)}
	}
	return recs, cacheSize, intervals
}

// fuzzSeed encodes the first second of a synthesized trace, up to
// records records, in fuzzTrace's form.
func fuzzSeed(p Profile, records int, flags byte) []byte {
	p.Duration = time.Second
	data := []byte{byte(p.Clients - 1), 8, flags, 15, 200}
	prev := time.Duration(0)
	for _, r := range Synthesize(p)[:records] {
		step := min((r.At-prev)*4/time.Millisecond, 127)
		prev += step * time.Millisecond / 4
		data = append(data, byte(step)<<1|byte(r.Kind), byte(r.Client), byte(r.Dir>>8), byte(r.Dir))
	}
	return data
}

// FuzzSection7MatchesReference: on any trace fuzzTrace decodes (sparse
// directory ids up to 1<<40, negative ids, up to 200 clients) the dense
// simulators equal the references exactly.
func FuzzSection7MatchesReference(f *testing.F) {
	for _, p := range []Profile{EECS(), Campus()} {
		for _, flags := range []byte{0x00, 0x05, 0x0a, 0x13} {
			f.Add(fuzzSeed(p, 300, flags))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, size, intervals := fuzzTrace(data)
		section7Equal(t, "fuzz", recs, intervals, []int{size})
	})
}

// TestSection7TablesFollowTheTrace: ids far above the trace's length are
// relabelled, so a 1000-record trace costs each simulator less than a
// megabyte however large its ids are. Ids near 1<<20 come first: tables
// sized by them would fail the bound, where 1<<40 would exhaust memory.
func TestSection7TablesFollowTheTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, base := range []int{1 << 20, 1 << 40} {
		recs := make([]Record, 1000)
		for i := range recs {
			recs[i] = Record{
				At:     time.Duration(i) * time.Millisecond,
				Client: base + rng.Intn(70),
				Dir:    base + rng.Intn(300),
				Kind:   OpKind(rng.Intn(2)),
			}
		}
		for name, run := range map[string]func(){
			"AnalyzeSharing":        func() { AnalyzeSharing(recs, nil) },
			"SimulateMetadataCache": func() { SimulateMetadataCache(recs, 1024) },
			"SimulateDelegation":    func() { SimulateDelegation(recs) },
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
				t.Fatalf("%s allocated %d bytes on 1000 records with ids near %d", name, b, base)
			}
		}
		section7Equal(t, "sparse ids", recs, nil, []int{0, 16, 1024})
	}
}

// TestNonPositiveIntervalReturns: a zero or negative interval has no
// windows and yields a point of zeros, and a 1 ns interval over a
// two-minute trace skips its empty windows instead of stepping through
// about 10^11 of them.
func TestNonPositiveIntervalReturns(t *testing.T) {
	p := EECS()
	p.Duration = 2 * time.Minute
	recs := Synthesize(p)
	done := make(chan []SharingPoint, 1)
	go func() { done <- AnalyzeSharing(recs, []time.Duration{0, -time.Second, time.Nanosecond}) }()
	var pts []SharingPoint
	select {
	case pts = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("AnalyzeSharing did not return on intervals 0, -1s and 1ns")
	}
	for _, pt := range pts[:2] {
		if pt != (SharingPoint{Interval: pt.Interval}) {
			t.Errorf("non-positive interval gave %+v, want zero fractions", pt)
		}
	}
	// Every record has its own timestamp, so each 1 ns window holds one
	// record of one client: read or written by one, shared by none.
	fine := pts[2]
	if fine.ReadMultiple != 0 || fine.WrittenMultiple != 0 || math.Abs(fine.ReadOne+fine.WriteOne-1) > 1e-9 {
		t.Errorf("1ns interval gave %+v", fine)
	}
}

// BenchmarkSection7 times each simulator and its reference on two-minute
// EECS and Campus traces (the size the host benchmark uses).
func BenchmarkSection7(b *testing.B) {
	intervals := []time.Duration{16 * time.Second, 256 * time.Second}
	for _, p := range []Profile{EECS(), Campus()} {
		p.Duration = 2 * time.Minute
		recs := Synthesize(p)
		for _, impl := range []struct {
			name    string
			sharing func([]Record, []time.Duration) []SharingPoint
			cache   func([]Record, int) CacheSimResult
			deleg   func([]Record) DelegationResult
		}{
			{"dense", AnalyzeSharing, SimulateMetadataCache, SimulateDelegation},
			{"reference", refAnalyzeSharing, refSimulateMetadataCache, refSimulateDelegation},
		} {
			b.Run(p.Name+"/sharing/"+impl.name, func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					impl.sharing(recs, intervals)
				}
			})
			b.Run(p.Name+"/cache1024/"+impl.name, func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					impl.cache(recs, 1024)
				}
			})
			b.Run(p.Name+"/delegation/"+impl.name, func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					impl.deleg(recs)
				}
			})
		}
	}
}
