package nfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"
)

// The ONC XDR encoding (RFC 4506) subset NFS and SunRPC messages are made
// of: big-endian 4-byte aligned integers, booleans, strings, and variable
// and fixed opaque data. The simulator never encodes a message (argSize and
// resSize charge the sizes); this encoder is kept for a test that checks
// those sizes against real encodings.

// xdrEncoder appends XDR-encoded values to a buffer.
type xdrEncoder struct {
	buf []byte
}

// Bytes returns the encoded buffer.
func (e *xdrEncoder) Bytes() []byte { return e.buf }

// Len returns the current encoded length.
func (e *xdrEncoder) Len() int { return len(e.buf) }

// Uint32 encodes a 32-bit unsigned integer.
func (e *xdrEncoder) Uint32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// Int32 encodes a 32-bit signed integer.
func (e *xdrEncoder) Int32(v int32) { e.Uint32(uint32(v)) }

// Uint64 encodes a 64-bit unsigned integer (hyper).
func (e *xdrEncoder) Uint64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// Int64 encodes a 64-bit signed integer.
func (e *xdrEncoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Bool encodes a boolean as 0/1.
func (e *xdrEncoder) Bool(v bool) {
	if v {
		e.Uint32(1)
	} else {
		e.Uint32(0)
	}
}

// Opaque encodes variable-length opaque data (length + bytes + padding).
func (e *xdrEncoder) Opaque(b []byte) {
	e.Uint32(uint32(len(b)))
	e.FixedOpaque(b)
}

// FixedOpaque encodes fixed-length opaque data (bytes + padding, no length).
func (e *xdrEncoder) FixedOpaque(b []byte) {
	e.buf = append(e.buf, b...)
	for pad := (4 - len(b)%4) % 4; pad > 0; pad-- {
		e.buf = append(e.buf, 0)
	}
}

// String encodes a string as variable-length opaque.
func (e *xdrEncoder) String(s string) { e.Opaque([]byte(s)) }

// xdrDecoder consumes XDR-encoded values from a buffer.
type xdrDecoder struct {
	buf []byte
	off int
}

// Remaining reports undecoded bytes.
func (d *xdrDecoder) Remaining() int { return len(d.buf) - d.off }

func (d *xdrDecoder) need(n int) error {
	if d.off+n > len(d.buf) {
		return fmt.Errorf("xdr: short buffer: need %d at offset %d of %d", n, d.off, len(d.buf))
	}
	return nil
}

// Uint32 decodes a 32-bit unsigned integer.
func (d *xdrDecoder) Uint32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

// Int32 decodes a 32-bit signed integer.
func (d *xdrDecoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 decodes a 64-bit unsigned integer.
func (d *xdrDecoder) Uint64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

// Int64 decodes a 64-bit signed integer.
func (d *xdrDecoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Bool decodes a boolean.
func (d *xdrDecoder) Bool() (bool, error) {
	v, err := d.Uint32()
	return v != 0, err
}

// Opaque decodes variable-length opaque data.
func (d *xdrDecoder) Opaque() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	return d.FixedOpaque(int(n))
}

// FixedOpaque decodes n bytes plus padding.
func (d *xdrDecoder) FixedOpaque(n int) ([]byte, error) {
	if n < 0 || n > len(d.buf) {
		return nil, fmt.Errorf("xdr: implausible opaque length %d", n)
	}
	padded := (n + 3) &^ 3
	if err := d.need(padded); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:d.off+n])
	d.off += padded
	return out, nil
}

// String decodes a string.
func (d *xdrDecoder) String() (string, error) {
	b, err := d.Opaque()
	return string(b), err
}

func TestXDRRoundTripBasics(t *testing.T) {
	e := &xdrEncoder{}
	e.Uint32(42)
	e.Int32(-7)
	e.Uint64(1 << 40)
	e.Int64(-(1 << 33))
	e.Bool(true)
	e.Bool(false)
	e.String("hello xdr")
	e.Opaque([]byte{1, 2, 3})

	d := &xdrDecoder{buf: e.Bytes()}
	if v, _ := d.Uint32(); v != 42 {
		t.Fatalf("u32 %d", v)
	}
	if v, _ := d.Int32(); v != -7 {
		t.Fatalf("i32 %d", v)
	}
	if v, _ := d.Uint64(); v != 1<<40 {
		t.Fatalf("u64 %d", v)
	}
	if v, _ := d.Int64(); v != -(1 << 33) {
		t.Fatalf("i64 %d", v)
	}
	if v, _ := d.Bool(); !v {
		t.Fatal("bool1")
	}
	if v, _ := d.Bool(); v {
		t.Fatal("bool2")
	}
	if v, _ := d.String(); v != "hello xdr" {
		t.Fatalf("string %q", v)
	}
	if v, _ := d.Opaque(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("opaque %v", v)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left over", d.Remaining())
	}
}

func TestXDRFourByteAlignment(t *testing.T) {
	for n := 0; n < 9; n++ {
		e := &xdrEncoder{}
		e.Opaque(make([]byte, n))
		if e.Len()%4 != 0 {
			t.Fatalf("opaque(%d) not aligned: %d", n, e.Len())
		}
	}
}

// Property: any (u32, u64, string, opaque) tuple round-trips exactly.
func TestXDRQuickRoundTrip(t *testing.T) {
	f := func(a uint32, b uint64, s string, o []byte) bool {
		e := &xdrEncoder{}
		e.Uint32(a)
		e.Uint64(b)
		e.String(s)
		e.Opaque(o)
		d := &xdrDecoder{buf: e.Bytes()}
		ga, err := d.Uint32()
		if err != nil || ga != a {
			return false
		}
		gb, err := d.Uint64()
		if err != nil || gb != b {
			return false
		}
		gs, err := d.String()
		if err != nil || gs != s {
			return false
		}
		gopq, err := d.Opaque()
		if err != nil || !bytes.Equal(gopq, o) {
			return false
		}
		return d.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding truncated buffers errors instead of panicking.
func TestXDRQuickTruncationSafe(t *testing.T) {
	f := func(s string, cut uint8) bool {
		e := &xdrEncoder{}
		e.String(s)
		buf := e.Bytes()
		n := int(cut) % (len(buf) + 1)
		d := &xdrDecoder{buf: buf[:n]}
		_, err := d.String()
		if n < len(buf) {
			return err != nil
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
