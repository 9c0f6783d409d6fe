package procfs

import (
	"repro/internal/kernel"
	"repro/internal/types"
	"repro/internal/vfs"
)

// PrSnapRec is one process in a PIOCSNAP result: the psinfo snapshot, plus
// the resource usage when the request asked for it. Usage is meaningful only
// for live processes (Info.State != 'Z'); zombies report zeroes, matching
// the per-pid path where PIOCUSAGE fails once the process has exited.
type PrSnapRec struct {
	Info  kernel.PSInfo
	Usage PrUsage
}

// PrSnap is the PIOCSNAP argument/result. The caller may pass the revision
// token of an earlier snapshot in Rev; on return Rev holds the table
// revision the records were taken at and Churned reports whether the table
// changed in between — the cue to retry if the caller needs two consistent
// sweeps. The batched form exists because the per-pid protocol (readdir,
// then open + ioctl + close per process) pays one file lifecycle per pid;
// over a remote file system that is one round trip each.
type PrSnap struct {
	// In.
	Pids      []int // restrict to these pids; nil means every visible process
	WithUsage bool  // also fill Usage in each record

	// Out.
	Rev     uint64 // in: previous token (0 = none); out: revision at snapshot
	Churned bool   // a non-zero in-Rev differed from the out-Rev
	Procs   []PrSnapRec
}

// Snapshot implements PIOCSNAP: walk the process table once, under the
// caller's credentials, and fill sn with one record per visible process in
// table (creation) order — the same order readdir presents. Each record is
// a true snapshot of its process; the revision token tells the caller
// whether the collection as a whole is one too. The restructured /proc
// serves the same records through its snapshot file, so both interfaces
// share this walk (and its fault site).
//
// Snapshot takes the global kernel lock, for direct Go callers; the /proc
// handlers, whose entry point already holds it, call SnapshotLocked.
func Snapshot(k *kernel.Kernel, c types.Cred, sn *PrSnap) error {
	k.GlobalLock()
	defer k.GlobalUnlock()
	return SnapshotLocked(k, c, sn)
}

// SnapshotLocked is Snapshot with the global kernel lock held by the caller.
func SnapshotLocked(k *kernel.Kernel, c types.Cred, sn *PrSnap) error {
	if sn == nil {
		return vfs.ErrInval
	}
	// The record slice is the snapshot's scratch allocation; an injected
	// refusal surfaces as EAGAIN, like the other ioctl-layer allocations.
	if siteFaultSnap.Hit(0) {
		return vfs.ErrAgain
	}
	var want map[int]bool
	if sn.Pids != nil {
		want = make(map[int]bool, len(sn.Pids))
		for _, pid := range sn.Pids {
			want[pid] = true
		}
	}
	// Table order, revision and liveness are global-domain state; each
	// record is read under its process's lock, the cross-process contract
	// for the per-process fields PSInfo and Usage read.
	prev := sn.Rev
	sn.Rev = k.TableRev()
	sn.Churned = prev != 0 && prev != sn.Rev
	procs := k.Procs()
	n := len(procs)
	if sn.Pids != nil {
		n = min(n, len(sn.Pids))
	}
	if cap(sn.Procs) < n {
		sn.Procs = make([]PrSnapRec, 0, n)
	}
	sn.Procs = sn.Procs[:0]
	for _, p := range procs {
		if p.State() == kernel.PGone {
			continue
		}
		if want != nil && !want[p.Pid] {
			continue
		}
		p.Lock()
		if !p.CanOpen(c) {
			p.Unlock()
			continue
		}
		rec := PrSnapRec{Info: p.PSInfo()}
		if sn.WithUsage && p.Alive() {
			rec.Usage = UsageOf(p)
		}
		p.Unlock()
		sn.Procs = append(sn.Procs, rec)
	}
	return nil
}

// rootHandle is the open state of the /proc directory itself. It exists for
// one purpose: PIOCSNAP, the batched snapshot. The credentials are captured
// at open time, as with any file.
type rootHandle struct {
	fs     *FS
	cred   types.Cred
	closed bool
}

func (h *rootHandle) HRead(p []byte, off int64) (int, error)  { return 0, vfs.ErrIsDir }
func (h *rootHandle) HWrite(p []byte, off int64) (int, error) { return 0, vfs.ErrIsDir }

func (h *rootHandle) HIoctl(cmd int, arg interface{}) error {
	if h.closed {
		return vfs.ErrBadFD
	}
	if cmd != PIOCSNAP {
		return vfs.ErrNoIoctl
	}
	sn, ok := arg.(*PrSnap)
	if !ok || sn == nil {
		return vfs.ErrInval
	}
	return SnapshotLocked(h.fs.K, h.cred, sn)
}

func (h *rootHandle) HClose() error {
	if h.closed {
		return vfs.ErrBadFD
	}
	h.closed = true
	return nil
}

// HSaveState / HLoadState implement vfs.HandleSnapshotter.
func (h *rootHandle) HSaveState() any { return h.closed }
func (h *rootHandle) HLoadState(st any) {
	if c, ok := st.(bool); ok {
		h.closed = c
	}
}
