package testbed_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/testbed"
	"repro/internal/tracing"
)

// readBed builds a traced testbed holding /f with data, caches cold and
// the trace empty, so the next read is the only thing it records.
func readBed(t *testing.T, kind testbed.Kind, data []byte) (*testbed.Testbed, *tracing.Tracer) {
	t.Helper()
	tracer := tracing.New(tracing.Config{})
	tb, err := testbed.New(testbed.Config{Kind: kind, DeviceBlocks: 8192, Seed: 7, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.WriteFile("/f", data); err != nil {
		t.Fatal(err)
	}
	if err := tb.ColdCache(); err != nil {
		t.Fatal(err)
	}
	tracer.Reset()
	return tb, tracer
}

// TestReadFileIntoMatchesReadFile reads the same cold file on twin
// testbeds, once with ReadFile and once with ReadFileInto into a buffer
// smaller than the file (it grows), of the file's size, and larger (it
// returns exactly Size bytes): same bytes, same spans — the root spans
// stat, open, read, close — and the same virtual time.
func TestReadFileIntoMatchesReadFile(t *testing.T) {
	const size = 20000 // a multiple of no block or page size
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*7 + i/251)
	}
	for _, kind := range []testbed.Kind{testbed.NFSv3, testbed.ISCSI} {
		for _, capacity := range []int{size / 2, size, 2 * size} {
			t.Run(fmt.Sprintf("%v/cap%d", kind, capacity), func(t *testing.T) {
				a, ta := readBed(t, kind, data)
				want, err := a.ReadFile("/f")
				if err != nil {
					t.Fatal(err)
				}
				b, tb := readBed(t, kind, data)
				buf := bytes.Repeat([]byte{0xee}, capacity)
				got, err := b.ReadFileInto("/f", buf)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, data) || !bytes.Equal(got, data) {
					t.Fatalf("read %d and %d bytes, want the %d written", len(want), len(got), size)
				}
				if reuses := &got[0] == &buf[0]; reuses != (capacity >= size) {
					t.Fatalf("buffer of capacity %d reused: %v", capacity, reuses)
				}
				if !reflect.DeepEqual(ta.Spans(), tb.Spans()) {
					t.Fatalf("span streams differ: %d vs %d spans", len(ta.Spans()), len(tb.Spans()))
				}
				var ops []string
				for _, s := range tracing.Roots(tb.Spans()) {
					ops = append(ops, tb.Op(s))
				}
				if want := []string{"stat", "open", "read", "close"}; !slices.Equal(ops, want) {
					t.Fatalf("root spans %v, want %v", ops, want)
				}
				if a.Clock.Now() != b.Clock.Now() {
					t.Fatalf("virtual time %v with ReadFile, %v with ReadFileInto", a.Clock.Now(), b.Clock.Now())
				}
			})
		}
	}
}

// TestReadFileIntoWarmAllocatesNoFileBuffer: a warm re-read into a buffer
// that fits allocates less than the file's size; ReadFile allocates more.
func TestReadFileIntoWarmAllocatesNoFileBuffer(t *testing.T) {
	const size, reads = 256 << 10, 20
	data := bytes.Repeat([]byte{0x5a}, size)
	for _, kind := range []testbed.Kind{testbed.NFSv3, testbed.ISCSI} {
		t.Run(kind.String(), func(t *testing.T) {
			tb, err := testbed.New(testbed.Config{Kind: kind, DeviceBlocks: 8192, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.WriteFile("/f", data); err != nil {
				t.Fatal(err)
			}
			buf, err := tb.ReadFileInto("/f", nil) // warm the caches
			if err != nil {
				t.Fatal(err)
			}
			perRead := func(read func() error) uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < reads; i++ {
					if err := read(); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				return (after.TotalAlloc - before.TotalAlloc) / reads
			}
			into := perRead(func() (err error) {
				buf, err = tb.ReadFileInto("/f", buf)
				return err
			})
			fresh := perRead(func() error {
				_, err := tb.ReadFile("/f")
				return err
			})
			t.Logf("bytes allocated per warm read of %d: ReadFileInto %d, ReadFile %d", size, into, fresh)
			if into >= size || fresh < size {
				t.Fatalf("a warm read allocated %d bytes into a buffer that fits and %d with ReadFile (file %d)",
					into, fresh, size)
			}
		})
	}
}
