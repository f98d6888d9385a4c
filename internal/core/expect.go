package core

import (
	"fmt"
	"io"
)

// Paper-shape conformance checking: each Check* function tests one of the
// paper's qualitative claims against regenerated data and reports
// pass/fail with the measured evidence. cmd tools and tests share these,
// so "the shape holds" is a checked property, not prose.

// ShapeCheck is one conformance verdict.
type ShapeCheck struct {
	Claim    string
	Pass     bool
	Evidence string
}

// CheckTable2Shapes validates the paper's three Table 2 observations on
// regenerated rows: iSCSI costs most cold for namespace-creating ops,
// counts grow with depth, and v4 exceeds v2/v3.
func CheckTable2Shapes(rows []SyscallRow) []ShapeCheck {
	var out []ShapeCheck
	find := func(op string) *SyscallRow {
		for i := range rows {
			if rows[i].Op == op {
				return &rows[i]
			}
		}
		return nil
	}
	if r := find("mkdir"); r != nil {
		out = append(out, ShapeCheck{
			Claim: "cold mkdir: iSCSI > NFS v3 (path resolution at the client)",
			Pass:  r.Depth0[ISCSI] > r.Depth0[NFSv3],
			Evidence: fmt.Sprintf("iSCSI=%d v3=%d at depth 0",
				r.Depth0[ISCSI], r.Depth0[NFSv3]),
		})
		out = append(out, ShapeCheck{
			Claim: "cold mkdir: counts grow with directory depth on every stack",
			Pass: r.Depth3[ISCSI] > r.Depth0[ISCSI] &&
				r.Depth3[NFSv3] > r.Depth0[NFSv3] &&
				r.Depth3[NFSv4] > r.Depth0[NFSv4],
			Evidence: fmt.Sprintf("d0->d3: iSCSI %d->%d, v3 %d->%d, v4 %d->%d",
				r.Depth0[ISCSI], r.Depth3[ISCSI],
				r.Depth0[NFSv3], r.Depth3[NFSv3],
				r.Depth0[NFSv4], r.Depth3[NFSv4]),
		})
	}
	var v4Higher, total int
	for _, r := range rows {
		total++
		if r.Depth3[NFSv4] >= r.Depth3[NFSv3] {
			v4Higher++
		}
	}
	out = append(out, ShapeCheck{
		Claim:    "cold: NFS v4 >= v3 on (nearly) every operation (ACCESS overhead)",
		Pass:     total > 0 && v4Higher*10 >= total*9,
		Evidence: fmt.Sprintf("%d of %d rows", v4Higher, total),
	})
	return out
}

// CheckTable3Shapes validates the warm-cache claims: iSCSI's update cost
// is a couple of journal transactions, never exceeding NFS by much, and
// read-only ops are free.
func CheckTable3Shapes(rows []SyscallRow) []ShapeCheck {
	var out []ShapeCheck
	updateOps := map[string]bool{"mkdir": true, "creat": true, "unlink": true, "rmdir": true}
	readOps := map[string]bool{"chdir": true, "stat": true, "access": true}
	var updMax, readMax int64
	for _, r := range rows {
		if updateOps[r.Op] && r.Depth3[ISCSI] > updMax {
			updMax = r.Depth3[ISCSI]
		}
		if readOps[r.Op] && r.Depth3[ISCSI] > readMax {
			readMax = r.Depth3[ISCSI]
		}
	}
	out = append(out, ShapeCheck{
		Claim:    "warm iSCSI updates cost ~2 msgs (journal body + commit record)",
		Pass:     updMax > 0 && updMax <= 3,
		Evidence: fmt.Sprintf("max update cost %d at depth 3", updMax),
	})
	out = append(out, ShapeCheck{
		Claim:    "warm iSCSI meta-data reads are free (client-resident filesystem)",
		Pass:     readMax == 0,
		Evidence: fmt.Sprintf("max read cost %d at depth 3", readMax),
	})
	return out
}

// CheckTable4Shapes validates the sequential/random I/O claims.
func CheckTable4Shapes(rows []Table4Row) []ShapeCheck {
	var out []ShapeCheck
	for _, r := range rows {
		switch r.Workload {
		case "Sequential writes":
			ratio := float64(r.NFS.Messages) / float64(max(r.ISCSI.Messages, 1))
			out = append(out, ShapeCheck{
				Claim:    "seq writes: iSCSI coalesces (~29:1 message ratio)",
				Pass:     ratio > 10,
				Evidence: fmt.Sprintf("NFS %d vs iSCSI %d msgs (%.0f:1)", r.NFS.Messages, r.ISCSI.Messages, ratio),
			})
			out = append(out, ShapeCheck{
				Claim:    "seq writes: iSCSI completes much faster (async write-back)",
				Pass:     r.ISCSI.Elapsed*2 < r.NFS.Elapsed,
				Evidence: fmt.Sprintf("NFS %v vs iSCSI %v", r.NFS.Elapsed, r.ISCSI.Elapsed),
			})
		case "Sequential reads":
			ratio := float64(r.NFS.Messages) / float64(max(r.ISCSI.Messages, 1))
			out = append(out, ShapeCheck{
				Claim:    "seq reads: comparable message counts",
				Pass:     ratio > 0.5 && ratio < 2,
				Evidence: fmt.Sprintf("NFS %d vs iSCSI %d msgs", r.NFS.Messages, r.ISCSI.Messages),
			})
		case "Random reads":
			out = append(out, ShapeCheck{
				Claim:    "random reads: NFS no faster than iSCSI",
				Pass:     r.NFS.Elapsed >= r.ISCSI.Elapsed*9/10,
				Evidence: fmt.Sprintf("NFS %v vs iSCSI %v", r.NFS.Elapsed, r.ISCSI.Elapsed),
			})
		}
	}
	return out
}

// CheckTable5Shapes validates PostMark's claims: a large iSCSI win and
// message counts growing faster (relative to pool size) on iSCSI.
func CheckTable5Shapes(rows []Table5Row) []ShapeCheck {
	var out []ShapeCheck
	for _, r := range rows {
		out = append(out, ShapeCheck{
			Claim: fmt.Sprintf("PostMark %d files: iSCSI wins decisively", r.Files),
			Pass:  r.ISCSI.Elapsed*3 < r.NFS.Elapsed && r.ISCSI.Messages*10 < r.NFS.Messages,
			Evidence: fmt.Sprintf("time %v vs %v, msgs %d vs %d",
				r.NFS.Elapsed, r.ISCSI.Elapsed, r.NFS.Messages, r.ISCSI.Messages),
		})
	}
	if len(rows) >= 2 {
		first, last := rows[0], rows[len(rows)-1]
		growN := float64(last.NFS.Messages) / float64(max(first.NFS.Messages, 1))
		growI := float64(last.ISCSI.Messages) / float64(max(first.ISCSI.Messages, 1))
		out = append(out, ShapeCheck{
			Claim:    "iSCSI message count grows faster with pool size (cache dilution)",
			Pass:     growI > growN,
			Evidence: fmt.Sprintf("NFS x%.1f vs iSCSI x%.1f across pool sizes", growN, growI),
		})
	}
	return out
}

// RenderChecks prints a conformance report and returns the failure count.
func RenderChecks(w io.Writer, title string, checks []ShapeCheck) int {
	fail := 0
	fmt.Fprintf(w, "%s\n", title)
	for _, c := range checks {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
			fail++
		}
		fmt.Fprintf(w, "  [%s] %s (%s)\n", mark, c.Claim, c.Evidence)
	}
	return fail
}
