package main

import (
	"strings"
	"testing"

	"repro/internal/testbed"
)

func TestInts(t *testing.T) {
	got, err := Ints(" 1, 2,16 ", "clients", 1, MaxMechClients)
	if err != nil || len(got) != 3 || got[2] != 16 {
		t.Fatalf("got %v, %v", got, err)
	}
	for _, bad := range []string{"0", "129", "x", "", "1,,200"} {
		if _, err := Ints(bad, "clients", 1, MaxMechClients); err == nil {
			t.Errorf("Ints(%q) accepted", bad)
		}
	}
}

func TestFloat(t *testing.T) {
	loss := number[float64]("loss", 0, MaxLossPercent)
	if v, err := loss("12.5"); err != nil || v != 12.5 {
		t.Fatalf("loss 12.5: %v, %v", v, err)
	}
	for _, bad := range []string{"-0.1", "50.01", "lots"} {
		if _, err := loss(bad); err == nil || !strings.Contains(err.Error(), "bad -loss value") {
			t.Errorf("loss %s: %v", bad, err)
		}
	}
}

func TestClientCounts(t *testing.T) {
	got, err := ClientCounts("1,16,128", false)
	if err != nil || len(got) != 3 {
		t.Fatalf("mechanistic counts: %v, %v", got, err)
	}
	if _, err := ClientCounts("10000", false); err == nil ||
		!strings.Contains(err.Error(), "-background") {
		t.Errorf("mechanistic 10000 error = %v, want hint at -background", err)
	}
	got, err = ClientCounts("16,10000,100000", true)
	if err != nil || len(got) != 3 || got[2] != MaxClients {
		t.Fatalf("background counts: %v, %v", got, err)
	}
	if _, err := ClientCounts("100001", true); err == nil {
		t.Error("count above MaxClients accepted in background mode")
	}
}

func TestLossPercents(t *testing.T) {
	got, err := LossPercents("0,1,50", "loss")
	if err != nil || got[1] != 0.01 || got[2] != 0.5 {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := LossPercents("51", "loss"); err == nil {
		t.Error("loss above 50% accepted")
	}
	if _, err := LossPercents("-1", "loss"); err == nil {
		t.Error("negative loss accepted")
	}
}

func TestStacksAndTransports(t *testing.T) {
	all, err := Stacks("all")
	if err != nil || len(all) != 4 {
		t.Fatalf("all: %v, %v", all, err)
	}
	two, err := Stacks("nfsv3, iscsi")
	if err != nil || len(two) != 2 || two[1] != testbed.ISCSI {
		t.Fatalf("pair: %v, %v", two, err)
	}
	if _, err := Stacks("nfs"); err == nil || !strings.Contains(err.Error(), "nfsv2") {
		t.Errorf("unknown stack error = %v", err)
	}
	tr, err := Transports("fluid,tcp")
	if err != nil || len(tr) != 2 || tr[1] != testbed.TransportTCP {
		t.Fatalf("transports: %v, %v", tr, err)
	}
	if _, err := Transports("quic"); err == nil {
		t.Error("unknown transport accepted")
	}
}

func TestWorkloads(t *testing.T) {
	known := []string{"seq-read", "seq-write"}
	if _, err := workloads("seq-read", known); err != nil {
		t.Fatal(err)
	}
	if _, err := workloads("postmark", known); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := workloads("", known); err == nil {
		t.Error("empty workload list accepted")
	}
}
