package core

import (
	"fmt"
	"io"
	"time"
)

// Renderers print results in the paper's table/figure layouts.

// RenderSyscallTable prints Table 2 or Table 3.
func RenderSyscallTable(w io.Writer, title string, rows []SyscallRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-10s | %-27s | %-27s\n", "", "Directory depth 0", "Directory depth 3")
	fmt.Fprintf(w, "%-10s | %5s %5s %5s %6s | %5s %5s %5s %6s\n",
		"op", "v2", "v3", "v4", "iSCSI", "v2", "v3", "v4", "iSCSI")
	line := "-----------+-----------------------------+----------------------------"
	fmt.Fprintln(w, line)
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s | %5d %5d %5d %6d | %5d %5d %5d %6d\n", r.Op,
			r.Depth0[NFSv2], r.Depth0[NFSv3], r.Depth0[NFSv4], r.Depth0[ISCSI],
			r.Depth3[NFSv2], r.Depth3[NFSv3], r.Depth3[NFSv4], r.Depth3[ISCSI])
	}
}

// RenderFigure3 prints the batching curves as per-op rows across batch
// sizes.
func RenderFigure3(w io.Writer, series []BatchSeries) {
	fmt.Fprintln(w, "Figure 3: iSCSI meta-data update aggregation (amortized msgs/op)")
	if len(series) == 0 {
		return
	}
	fmt.Fprintf(w, "%-8s", "op")
	for _, p := range series[0].Points {
		fmt.Fprintf(w, " %7d", p.Batch)
	}
	fmt.Fprintln(w)
	for _, s := range series {
		fmt.Fprintf(w, "%-8s", s.Op)
		for _, p := range s.Points {
			fmt.Fprintf(w, " %7.2f", p.PerOpMsgs)
		}
		fmt.Fprintln(w)
	}
}

// RenderFigure4 prints depth-sensitivity series.
func RenderFigure4(w io.Writer, series []DepthSeries) {
	fmt.Fprintln(w, "Figure 4: effect of directory depth on message overhead")
	for _, s := range series {
		mode := "cold"
		if s.Warm {
			mode = "warm"
		}
		fmt.Fprintf(w, "[%s, %s]\n", s.Op, mode)
		fmt.Fprintf(w, "%-6s %6s %6s %6s %6s\n", "depth", "v2", "v3", "v4", "iSCSI")
		for _, p := range s.Points {
			fmt.Fprintf(w, "%-6d %6d %6d %6d %6d\n", p.Depth,
				p.Messages[NFSv2], p.Messages[NFSv3], p.Messages[NFSv4], p.Messages[ISCSI])
		}
	}
}

// RenderFigure5 prints size-sensitivity series.
func RenderFigure5(w io.Writer, series []SizeSeries) {
	fmt.Fprintln(w, "Figure 5: message overheads of reads/writes by request size")
	for _, s := range series {
		fmt.Fprintf(w, "[%s]\n", s.Panel)
		fmt.Fprintf(w, "%-8s %6s %6s %6s %6s\n", "size", "v2", "v3", "v4", "iSCSI")
		for _, p := range s.Points {
			fmt.Fprintf(w, "%-8s %6d %6d %6d %6d\n", byteSize(p.Size),
				p.Messages[NFSv2], p.Messages[NFSv3], p.Messages[NFSv4], p.Messages[ISCSI])
		}
	}
}

// RenderTable4 prints the sequential/random I/O comparison.
func RenderTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintln(w, "Table 4: sequential and random reads/writes")
	fmt.Fprintf(w, "%-18s | %10s %10s | %9s %9s | %9s %9s\n",
		"", "NFSv3 time", "iSCSI time", "NFS msgs", "iSCSI msg", "NFS MB", "iSCSI MB")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s | %10s %10s | %9d %9d | %9.0f %9.0f\n", r.Workload,
			r.NFS.Elapsed.Round(10*time.Millisecond), r.ISCSI.Elapsed.Round(10*time.Millisecond),
			r.NFS.Messages, r.ISCSI.Messages,
			float64(r.NFS.Bytes)/(1<<20), float64(r.ISCSI.Bytes)/(1<<20))
	}
}

// RenderFigure6 prints the latency sweep.
func RenderFigure6(w io.Writer, points []LatencyPoint) {
	fmt.Fprintln(w, "Figure 6: impact of network latency on completion time (seconds)")
	fmt.Fprintf(w, "%-8s | %-31s | %-31s\n", "", "NFS v3", "iSCSI")
	fmt.Fprintf(w, "%-8s | %7s %7s %7s %7s | %7s %7s %7s %7s\n", "RTT",
		"seq-rd", "rnd-rd", "seq-wr", "rnd-wr", "seq-rd", "rnd-rd", "seq-wr", "rnd-wr")
	for _, p := range points {
		n := p.Seconds[NFSv3]
		i := p.Seconds[ISCSI]
		fmt.Fprintf(w, "%-8v | %7.1f %7.1f %7.1f %7.1f | %7.1f %7.1f %7.1f %7.1f\n", p.RTT,
			n["seq-read"], n["rand-read"], n["seq-write"], n["rand-write"],
			i["seq-read"], i["rand-read"], i["seq-write"], i["rand-write"])
	}
}

// RenderTable5 prints PostMark results.
func RenderTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintln(w, "Table 5: PostMark completion times and message counts")
	fmt.Fprintf(w, "%-8s | %10s %10s | %10s %10s\n",
		"files", "NFSv3 time", "iSCSI time", "NFS msgs", "iSCSI msgs")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d | %10s %10s | %10d %10d\n", r.Files,
			r.NFS.Elapsed.Round(10*time.Millisecond), r.ISCSI.Elapsed.Round(10*time.Millisecond),
			r.NFS.Messages, r.ISCSI.Messages)
	}
}

// RenderTPC prints a Table 6/7 row.
func RenderTPC(w io.Writer, r TPCRow, unit string) {
	fmt.Fprintf(w, "%s: normalized throughput NFSv3=1.00 iSCSI=%.2f (%s); messages NFS=%d iSCSI=%d\n",
		r.Benchmark, r.Normalized, unit, r.NFS.Messages, r.ISCSI.Messages)
}

// RenderTable8 prints the shell benchmarks.
func RenderTable8(w io.Writer, rows []Table8Row) {
	fmt.Fprintln(w, "Table 8: completion times for other benchmarks")
	fmt.Fprintf(w, "%-16s | %12s %12s\n", "benchmark", "NFS v3", "iSCSI")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s | %12s %12s\n", r.Benchmark,
			r.NFS.Elapsed.Round(10*time.Millisecond), r.ISCSI.Elapsed.Round(10*time.Millisecond))
	}
}

// RenderCPUTables prints Tables 9 and 10.
func RenderCPUTables(w io.Writer, rows []CPURow) {
	fmt.Fprintln(w, "Table 9: server CPU utilization (95th percentile)")
	fmt.Fprintf(w, "%-10s | %8s %8s\n", "", "NFS v3", "iSCSI")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s | %7.0f%% %7.0f%%\n", r.Benchmark, r.NFSServer*100, r.ISCSIServer*100)
	}
	fmt.Fprintln(w, "Table 10: client CPU utilization (95th percentile)")
	fmt.Fprintf(w, "%-10s | %8s %8s\n", "", "NFS v3", "iSCSI")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s | %7.0f%% %7.0f%%\n", r.Benchmark, r.NFSClient*100, r.ISCSIClient*100)
	}
}

func byteSize(n int) string {
	if n >= 1<<10 && n%(1<<10) == 0 {
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}
