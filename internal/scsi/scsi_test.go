package scsi

import (
	"testing"
	"testing/quick"
)

func TestCDBRoundTrip(t *testing.T) {
	cases := []CDB{
		Read10(0, 1),
		Read10(1<<20, 64),
		Write10(42, 8),
		SyncCache10(7, 0),
		Inquiry(96),
		ReadCapacity10(),
		{Op: OpTestUnitReady},
	}
	for _, c := range cases {
		got, err := DecodeCDB(c.Encode())
		if err != nil {
			t.Fatalf("decode %+v: %v", c, err)
		}
		if got != c {
			t.Fatalf("roundtrip: %+v != %+v", got, c)
		}
	}
}

func TestDecodeRejectsUnknownOpcode(t *testing.T) {
	var b [CDBSize]byte
	b[0] = 0x99
	if _, err := DecodeCDB(b); err == nil {
		t.Fatal("unknown opcode accepted")
	}
}

// Property: READ/WRITE CDBs round-trip for any LBA/length.
func TestQuickReadWriteCDB(t *testing.T) {
	f := func(lba uint32, n uint16, write bool) bool {
		var c CDB
		if write {
			c = Write10(lba, n)
		} else {
			c = Read10(lba, n)
		}
		got, err := DecodeCDB(c.Encode())
		return err == nil && got == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityData(t *testing.T) {
	b := CapacityData(123456, 4096)
	last, bs := ParseCapacityData(b)
	if last != 123456 || bs != 4096 {
		t.Fatalf("capacity roundtrip: %d %d", last, bs)
	}
}

func TestInquiryData(t *testing.T) {
	d := InquiryData("REPRO", "SIMVOL")
	if len(d) != 36 {
		t.Fatalf("inquiry length %d", len(d))
	}
	if string(d[8:13]) != "REPRO" {
		t.Fatalf("vendor %q", d[8:16])
	}
}
