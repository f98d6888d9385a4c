package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/netqueue"
	"repro/internal/testbed"
)

// TestClientCountsNeverPanic: a zero or negative client count reaching
// any cluster sweep through the library (the cmds reject it at the flag)
// is an error where the count is a sweep axis, and the documented default
// where it is a single knob — never a panic. RunScaling used to index an
// empty slice on Counts: []int{0}.
func TestClientCountsNeverPanic(t *testing.T) {
	fluid := []testbed.Transport{testbed.TransportFluid}
	nfs := []Stack{NFSv3}
	for _, n := range []int{0, -3} {
		if cells, err := RunScaling(ScaleConfig{Counts: []int{n}, Workloads: []string{"seq-write"},
			Stacks: nfs, FileSize: 64 << 10}); err == nil {
			t.Errorf("RunScaling accepted %d clients: %+v", n, cells)
		}
		if cells, err := RunWAN(WANConfig{Counts: []int{n}, Stacks: nfs, Transports: fluid,
			Capacities: []int64{4 << 20}, Disciplines: []netqueue.Discipline{netqueue.DropTail},
			Mixes: []string{"lan"}, FileSize: 64 << 10}); err == nil {
			t.Errorf("RunWAN accepted %d clients: %+v", n, cells)
		}

		replay, err := RunReplay(ReplayConfig{Profiles: []string{"eecs"}, Stacks: nfs,
			Transports: fluid, Clients: n, MaxOps: 20, DeviceBlocks: 8192})
		if err != nil || len(replay) != 1 || replay[0].Clients != 4 {
			t.Errorf("RunReplay with %d clients: %+v, %v (want the default 4)", n, replay, err)
		}
		faults, err := RunFault(FaultConfig{Families: []fault.Family{fault.LinkFlap}, Stacks: nfs,
			Transports: fluid, Clients: n})
		if err != nil || len(faults) != 1 || faults[0].Clients != 2 {
			t.Errorf("RunFault with %d clients: %+v, %v (want the default 2)", n, faults, err)
		}
		contend, err := RunContention(ContendConfig{Workloads: []string{ContendPingPong}, Stacks: nfs,
			Transports: fluid, Clients: n, Iters: 3})
		if err != nil || len(contend) != 1 || contend[0].Clients != 4 {
			t.Errorf("RunContention with %d clients: %+v, %v (want the default 4)", n, contend, err)
		}
		// One control and one fault cell, on the default two clients.
		if cells, err := RunHealth(HealthConfig{Families: []fault.Family{fault.LinkFlap}, Stacks: nfs,
			Transports: fluid, Clients: n}); err != nil || len(cells) != 2 {
			t.Errorf("RunHealth with %d clients: %+v, %v", n, cells, err)
		}
	}
}

// TestVariants: the one place that knows which stack/transport pairs
// exist and where the MC/S connection knob applies.
func TestVariants(t *testing.T) {
	got := variants([]Stack{NFSv3, ISCSI},
		[]testbed.Transport{testbed.TransportFluid, testbed.TransportUDP, testbed.TransportTCP}, 4)
	want := []variant{
		{NFSv3, testbed.TransportFluid, 1}, {NFSv3, testbed.TransportUDP, 1}, {NFSv3, testbed.TransportTCP, 1},
		{ISCSI, testbed.TransportFluid, 1}, {ISCSI, testbed.TransportTCP, 4},
	}
	if len(got) != len(want) {
		t.Fatalf("variants = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("variant %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if l := variantLabel(ISCSI, testbed.TransportTCP); l != "iSCSI/tcp" {
		t.Errorf("label = %q", l)
	}
}
