package lockmgr

// Delegations is the server's NFSv4-style delegation table, keyed by
// path. Its state machine is deliberately *identical* to the Section-7
// simulator in internal/trace (trace.SimulateDelegation), which is the
// validation oracle for the full stack: a read delegation lets every
// holder serve reads locally, a write delegation lets a lone writer
// aggregate updates locally, and a conflicting access recalls whatever
// stands in its way. The caller (the NFS client's delegation fast path)
// turns "local" into zero RPCs and "non-local" into exactly one, so the
// replayed message reduction equals the oracle's by construction.
//
// Recalls are state flips here and cost the conflicting op nothing, the
// oracle's instantaneous-recall model.
type Delegations struct {
	leases map[string]*dirLease

	reads       int64
	writes      int64
	localReads  int64
	localWrites int64
	recalls     int64
	readGrants  int64
	writeGrants int64
}

// dirLease mirrors the oracle's per-directory lease record: at most one
// writer (-1 = none) and any number of readers.
type dirLease struct {
	writer  int
	readers map[int]bool
}

// NewDelegations builds an empty delegation table.
func NewDelegations() *Delegations {
	return &Delegations{leases: make(map[string]*dirLease)}
}

func (d *Delegations) lease(path string) *dirLease {
	l := d.leases[path]
	if l == nil {
		l = &dirLease{writer: -1, readers: make(map[int]bool)}
		d.leases[path] = l
	}
	return l
}

// Read records client reading path. It returns whether the access is
// served locally under an existing delegation (zero messages).
func (d *Delegations) Read(client int, path string) bool {
	d.reads++
	l := d.lease(path)
	// A read against an outstanding foreign write delegation recalls it.
	if l.writer != -1 && l.writer != client {
		d.recalls++
		l.writer = -1
	}
	if l.readers[client] || l.writer == client {
		d.localReads++
		return true
	}
	l.readers[client] = true
	d.readGrants++
	return false
}

// Write records client updating path: local if the client already holds
// an uncontested write delegation, otherwise it recalls every other
// holder and takes the write delegation (the acquisition riding the
// update itself — one message).
func (d *Delegations) Write(client int, path string) bool {
	d.writes++
	l := d.lease(path)
	if l.writer == client && len(l.readers) == 0 {
		d.localWrites++
		return true
	}
	for c := range l.readers {
		if c != client {
			d.recalls++
		}
	}
	if l.writer != -1 && l.writer != client {
		d.recalls++
	}
	l.readers = make(map[int]bool)
	l.writer = client
	d.writeGrants++
	return false
}

// Reset drops all lease state, opening a fresh measurement window (the
// oracle test replays its trace against an empty table, like the
// simulator does). Counters survive — they are monotone telemetry.
func (d *Delegations) Reset() {
	d.leases = make(map[string]*dirLease)
}

// Recalls reports the cumulative recall count.
func (d *Delegations) Recalls() int64 { return d.recalls }

// Counters exports cumulative delegation counters for the metrics
// event stream (metrics.SubsysLease).
func (d *Delegations) Counters() map[string]int64 {
	return map[string]int64{
		"reads":        d.reads,
		"writes":       d.writes,
		"local_reads":  d.localReads,
		"local_writes": d.localWrites,
		"recalls":      d.recalls,
		"read_grants":  d.readGrants,
		"write_grants": d.writeGrants,
	}
}
