package testbed_test

import (
	"fmt"

	"repro/internal/testbed"
)

// Both of the paper's testbeds (an NFS v3 client/server pair and an
// iSCSI-backed local ext3) run the same small workload, and each prints the
// wire traffic it generated: the file-access vs block-access comparison in
// one minute.
func Example_quickstart() {
	for _, kind := range []testbed.Kind{testbed.NFSv3, testbed.ISCSI} {
		tb, err := testbed.New(testbed.Config{Kind: kind})
		if err != nil {
			panic(err)
		}

		before := tb.Snap()

		// A little meta-data work...
		if err := tb.Mkdir("/project"); err != nil {
			panic(err)
		}
		if err := tb.WriteFile("/project/notes.txt", []byte("ip-networked storage\n")); err != nil {
			panic(err)
		}
		if err := tb.Rename("/project/notes.txt", "/project/README"); err != nil {
			panic(err)
		}
		// ...and a little data work.
		data, err := tb.ReadFile("/project/README")
		if err != nil {
			panic(err)
		}
		if err := tb.Drain(); err != nil {
			panic(err)
		}

		d := tb.Since(before)
		fmt.Printf("%-8s read back %q\n", tb.Kind, data)
		fmt.Printf("%-8s messages=%d frames=%d bytes=%d virtual-time=%v\n\n",
			tb.Kind, d.Messages, d.Frames, d.Bytes, d.Elapsed.Round(0))
	}
	fmt.Println("Same workload, two architectures: the message counts differ because")
	fmt.Println("NFS resolves names with synchronous RPCs while the iSCSI client's")
	fmt.Println("ext3 journal aggregates meta-data updates into batched block writes.")
	// Output:
	// NFS v3   read back "ip-networked storage\n"
	// NFS v3   messages=12 frames=24 bytes=4821 virtual-time=26.028812ms
	//
	// iSCSI    read back "ip-networked storage\n"
	// iSCSI    messages=8 frames=16 bytes=63264 virtual-time=25.685916ms
	//
	// Same workload, two architectures: the message counts differ because
	// NFS resolves names with synchronous RPCs while the iSCSI client's
	// ext3 journal aggregates meta-data updates into batched block writes.
}
