// Package nfs implements virtual-time NFS protocol engines for the three
// generations the paper compares (Section 2.1):
//
//   - v2: RPC over UDP, stateless, 8 KB maximum transfers, synchronous
//     data and meta-data writes at the server;
//   - v3: RPC over TCP, asynchronous WRITE + COMMIT, post-op attributes,
//     64-bit offsets — but retaining the Linux client's 8 KB transfer size
//     and its bounded async-write pool (the "pseudo-synchronous" behaviour
//     the paper analyzes in Section 4.5);
//   - v4: stateful OPEN/CLOSE, COMPOUND-framed requests, per-component
//     ACCESS checking (the Linux v4 client behaviour behind its higher
//     message counts in Table 2), larger transfers.
//
// The server runs over a server-side ext3 filesystem exported with
// synchronous meta-data semantics; the client implements vfs.FileSystem
// with a dentry cache, a 3 s/30 s attribute/data cache, a page cache with
// read-ahead, and a bounded write-behind pool.
package nfs

import "time"

// Version selects the protocol generation.
type Version int

// Protocol versions.
const (
	V2 Version = 2
	V3 Version = 3
	V4 Version = 4
)

func (v Version) String() string {
	switch v {
	case V2:
		return "NFSv2"
	case V3:
		return "NFSv3"
	default:
		return "NFSv4"
	}
}

// Proc identifies an NFS procedure (v4 operations are folded into the same
// space; each COMPOUND we send corresponds to one logical operation, which
// is how nfsstat-style message counting sees the Linux v4 client).
type Proc int

// Procedures.
const (
	ProcNull Proc = iota
	ProcGetattr
	ProcSetattr
	ProcLookup
	ProcAccess
	ProcReadlink
	ProcRead
	ProcWrite
	ProcCreate
	ProcMkdir
	ProcSymlink
	ProcRemove
	ProcRmdir
	ProcRename
	ProcLink
	ProcReaddir
	ProcReaddirPlus
	ProcFsstat
	ProcFsinfo
	ProcCommit
	ProcOpen        // v4
	ProcOpenConfirm // v4
	ProcClose       // v4
	ProcLock        // NLM LOCK (v2/v3 sideband) / v4 LOCK
	ProcUnlock      // NLM UNLOCK / v4 LOCKU

	procCount // the number of procedures; stays last
)

// procNames is indexed by Proc: String runs on every RPC, tracing or not.
var procNames = [procCount]string{
	ProcNull: "NULL", ProcGetattr: "GETATTR", ProcSetattr: "SETATTR",
	ProcLookup: "LOOKUP", ProcAccess: "ACCESS", ProcReadlink: "READLINK",
	ProcRead: "READ", ProcWrite: "WRITE", ProcCreate: "CREATE",
	ProcMkdir: "MKDIR", ProcSymlink: "SYMLINK", ProcRemove: "REMOVE",
	ProcRmdir: "RMDIR", ProcRename: "RENAME", ProcLink: "LINK",
	ProcReaddir: "READDIR", ProcReaddirPlus: "READDIRPLUS",
	ProcFsstat: "FSSTAT", ProcFsinfo: "FSINFO", ProcCommit: "COMMIT",
	ProcOpen: "OPEN", ProcOpenConfirm: "OPEN_CONFIRM", ProcClose: "CLOSE",
	ProcLock: "LOCK", ProcUnlock: "UNLOCK",
}

func (p Proc) String() string {
	if p < 0 || p >= procCount {
		return "UNKNOWN"
	}
	return procNames[p]
}

// FH is an NFS file handle: the server-side inode number plus generation.
type FH struct {
	Ino uint64
	Gen uint32
}

// fhWireSize is the encoded filehandle size: v2 fixed 32 bytes; v3/v4
// variable (we use 32).
const fhWireSize = 32

// fattrSize approximates the encoded fattr/post-op attribute structure.
func fattrSize(v Version) int {
	switch v {
	case V2:
		return 68
	case V3:
		return 84
	default:
		return 116 // v4 attribute bitmap encoding is bulkier
	}
}

// sattrSize approximates the encoded settable-attribute structure.
func sattrSize(v Version) int {
	if v == V2 {
		return 32
	}
	return 44
}

// compoundOverhead is the extra framing v4 COMPOUND adds per request.
func compoundOverhead(v Version) int {
	if v == V4 {
		return 28 // tag + op count + PUTFH wrapping
	}
	return 0
}

// argSize returns the encoded argument size for (proc, name, payload).
func argSize(v Version, p Proc, nameLen, payload int) int {
	base := fhWireSize + compoundOverhead(v)
	name := ((nameLen + 3) &^ 3) + 4
	switch p {
	case ProcGetattr, ProcReadlink, ProcFsstat, ProcFsinfo, ProcClose:
		return base
	case ProcAccess:
		return base + 4
	case ProcLookup, ProcRemove, ProcRmdir:
		return base + name
	case ProcSetattr:
		return base + sattrSize(v)
	case ProcRead:
		return base + 12
	case ProcWrite:
		return base + 16 + payload
	case ProcCreate, ProcMkdir, ProcOpen:
		return base + name + sattrSize(v)
	case ProcSymlink:
		return base + name + sattrSize(v) + payload // payload = target len
	case ProcRename:
		return base + name + fhWireSize + name
	case ProcLink:
		return base + fhWireSize + name
	case ProcReaddir, ProcReaddirPlus:
		return base + 16
	case ProcCommit:
		return base + 12
	case ProcOpenConfirm:
		return base + 12
	case ProcLock:
		return base + 28 // owner + offset + length + type + reclaim flag
	case ProcUnlock:
		return base + 24 // owner + offset + length
	default:
		return base
	}
}

// resSize returns the encoded result size for (proc, payload).
func resSize(v Version, p Proc, payload int) int {
	attrs := fattrSize(v)
	base := 8 + compoundOverhead(v) // status + framing
	switch p {
	case ProcGetattr, ProcSetattr:
		return base + attrs
	case ProcLookup, ProcCreate, ProcMkdir, ProcSymlink, ProcOpen:
		return base + fhWireSize + attrs
	case ProcAccess:
		return base + attrs + 4
	case ProcReadlink:
		return base + attrs + payload
	case ProcRead:
		return base + attrs + 8 + payload
	case ProcWrite:
		return base + attrs + 12
	case ProcRemove, ProcRmdir, ProcRename, ProcLink, ProcClose, ProcOpenConfirm:
		return base + attrs
	case ProcReaddir, ProcReaddirPlus:
		return base + attrs + payload
	case ProcCommit:
		return base + attrs + 8
	case ProcLock, ProcUnlock:
		return base + 4 // grant/denied status
	default:
		return base
	}
}

// transferSize returns the client's read/write transfer size. The paper
// observed the Linux v2 and v3 clients both using 8 KB transfers (v3's
// protocol allows more but the implementation does not exploit it), while
// the v4 client used larger transfers (Section 4.4).
func transferSize(v Version) int {
	if v == V4 {
		return 32 << 10
	}
	return 8 << 10
}

// readdirEntrySize approximates one entry in a READDIR reply.
func readdirEntrySize(v Version, nameLen int) int {
	if v == V2 {
		return 12 + ((nameLen + 3) &^ 3)
	}
	return 20 + ((nameLen + 3) &^ 3)
}

// AttrTimeout is the client's meta-data consistency window: cached
// attributes older than this trigger a revalidation GETATTR (Linux: 3 s,
// per Section 2.3 of the paper).
const AttrTimeout = 3 * time.Second

// dataTimeout is the client's cached-data consistency window (30 s).
const dataTimeout = 30 * time.Second
