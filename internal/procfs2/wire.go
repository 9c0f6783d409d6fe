// Package procfs2 implements the paper's proposed restructuring of /proc:
// a hierarchy of directories containing status and control files, replacing
// every ioctl operation with read(2) and write(2). Process state is
// interrogated by reads of read-only status files; process control is
// effected by structured messages written to write-only control files —
// several control operations may be combined in a single write. Thread-ids
// of sibling LWPs appear as sub-directories within a hierarchy that has the
// process-id at the top.
//
// Because everything is plain bytes over read/write, this interface
// generalizes to networks with no per-operation marshalling knowledge — the
// property the paper argues makes the restructuring superior to ioctl for
// remote file systems.
package procfs2

import (
	"slices"

	"repro/internal/kernel"
	"repro/internal/procfs"
	"repro/internal/types"
	"repro/internal/vcpu"
	"repro/internal/wire"
)

// The operand encodings below are shared by the ctl messages and the RFS
// ioctl codecs: a signal or fault set is two u64 words, a system call set
// eight, and a register set the eight general registers, PC, SP and PSW.

// PutSigSet appends a signal set.
func PutSigSet(w *wire.Cursor, s types.SigSet) {
	w.PutU64(s[0])
	w.PutU64(s[1])
}

// GetSigSet reads a signal set.
func GetSigSet(w *wire.Cursor) types.SigSet { return types.SigSet{w.U64(), w.U64()} }

// PutFltSet appends a fault set.
func PutFltSet(w *wire.Cursor, s types.FltSet) { PutSigSet(w, types.SigSet(s)) }

// GetFltSet reads a fault set.
func GetFltSet(w *wire.Cursor) types.FltSet { return types.FltSet(GetSigSet(w)) }

// PutSysSet appends a system call set.
func PutSysSet(w *wire.Cursor, s types.SysSet) {
	for _, v := range s {
		w.PutU64(v)
	}
}

// GetSysSet reads a system call set.
func GetSysSet(w *wire.Cursor) types.SysSet {
	var s types.SysSet
	for i := range s {
		s[i] = w.U64()
	}
	return s
}

// PutRegs appends a register set.
func PutRegs(w *wire.Cursor, r vcpu.Regs) {
	for _, v := range r.R {
		w.PutU32(v)
	}
	w.PutU32(r.PC)
	w.PutU32(r.SP)
	w.PutU32(r.PSW)
}

// GetRegs reads a register set.
func GetRegs(w *wire.Cursor) vcpu.Regs {
	var r vcpu.Regs
	for i := range r.R {
		r.R[i] = w.U32()
	}
	r.PC = w.U32()
	r.SP = w.U32()
	r.PSW = w.U32()
	return r
}

// EncodeStatus serializes a ProcStatus for the status/lwpstatus files.
func EncodeStatus(st kernel.ProcStatus) []byte {
	w := &wire.Cursor{}
	w.PutU32(uint32(st.Flags))
	w.PutU32(uint32(st.Why))
	w.PutU32(uint32(st.What))
	w.PutU32(uint32(st.CurSig))
	w.PutU32(uint32(st.Pid))
	w.PutU32(uint32(st.PPid))
	w.PutU32(uint32(st.Pgrp))
	w.PutU32(uint32(st.Sid))
	w.PutU32(uint32(st.LWPID))
	w.PutU32(uint32(st.NLWP))
	PutSigSet(w, st.SigPend)
	PutSigSet(w, st.SigHold)
	PutRegs(w, st.Reg)
	w.PutU32(uint32(st.Syscall))
	for _, a := range st.SysArgs {
		w.PutU32(a)
	}
	w.PutU64(st.Instret)
	w.PutU64(uint64(st.UTime))
	w.PutU64(uint64(st.STime))
	w.PutU32(st.BrkBase)
	w.PutU32(st.BrkSize)
	w.PutU32(st.StkBase)
	w.PutU32(st.StkSize)
	w.PutU64(uint64(st.VSize))
	return w.B
}

// DecodeStatus parses the status file contents.
func DecodeStatus(b []byte) (kernel.ProcStatus, error) {
	w := &wire.Cursor{B: b}
	var st kernel.ProcStatus
	st.Flags = int(w.I32())
	st.Why = kernel.StopWhy(w.I32())
	st.What = int(w.I32())
	st.CurSig = int(w.I32())
	st.Pid = int(w.I32())
	st.PPid = int(w.I32())
	st.Pgrp = int(w.I32())
	st.Sid = int(w.I32())
	st.LWPID = int(w.I32())
	st.NLWP = int(w.I32())
	st.SigPend = GetSigSet(w)
	st.SigHold = GetSigSet(w)
	st.Reg = GetRegs(w)
	st.Syscall = int(w.I32())
	for i := range st.SysArgs {
		st.SysArgs[i] = w.U32()
	}
	st.Instret = w.U64()
	st.UTime = w.I64()
	st.STime = w.I64()
	st.BrkBase = w.U32()
	st.BrkSize = w.U32()
	st.StkBase = w.U32()
	st.StkSize = w.U32()
	st.VSize = w.I64()
	return st, w.Err
}

func putPSInfo(w *wire.Cursor, info *kernel.PSInfo) {
	w.PutU32(uint32(info.Pid))
	w.PutU32(uint32(info.PPid))
	w.PutU32(uint32(info.Pgrp))
	w.PutU32(uint32(info.Sid))
	w.PutU32(uint32(info.UID))
	w.PutU32(uint32(info.GID))
	w.PutU32(uint32(info.State))
	w.PutU32(uint32(info.Nice))
	w.PutU64(uint64(info.VSize))
	w.PutU64(uint64(info.Time))
	w.PutU64(uint64(info.Start))
	w.PutU32(uint32(info.NLWP))
	w.PutStr(info.Comm)
	w.PutStr(info.Args)
}

func psInfo(w *wire.Cursor, info *kernel.PSInfo) {
	info.Pid = int(w.I32())
	info.PPid = int(w.I32())
	info.Pgrp = int(w.I32())
	info.Sid = int(w.I32())
	info.UID = int(w.I32())
	info.GID = int(w.I32())
	info.State = byte(w.U32())
	info.Nice = int(w.I32())
	info.VSize = w.I64()
	info.Time = w.I64()
	info.Start = w.I64()
	info.NLWP = int(w.I32())
	info.Comm = w.StrAs(info.Comm)
	info.Args = w.StrAs(info.Args)
}

// psInfoFixed is the encoded size of a psinfo record with empty strings:
// nine 32-bit fields, three 64-bit fields and two string lengths.
const psInfoFixed = 9*4 + 3*8 + 2*4

// EncodePSInfo serializes a PSInfo for the psinfo file.
func EncodePSInfo(info kernel.PSInfo) []byte {
	w := &wire.Cursor{}
	putPSInfo(w, &info)
	return w.B
}

// DecodePSInfo parses the psinfo file contents.
func DecodePSInfo(b []byte) (kernel.PSInfo, error) {
	w := &wire.Cursor{B: b}
	var info kernel.PSInfo
	psInfo(w, &info)
	return info, w.Err
}

// MapEntry is one mapping in the map file.
type MapEntry struct {
	Vaddr  uint32
	Size   uint32
	Off    int64
	Prot   uint32
	Shared bool
	Kind   int32
	Name   string
}

// EncodeMap serializes the memory map.
func EncodeMap(entries []MapEntry) []byte {
	w := &wire.Cursor{}
	w.PutU32(uint32(len(entries)))
	for _, e := range entries {
		w.PutU32(e.Vaddr)
		w.PutU32(e.Size)
		w.PutU64(uint64(e.Off))
		w.PutU32(e.Prot)
		if e.Shared {
			w.PutU32(1)
		} else {
			w.PutU32(0)
		}
		w.PutU32(uint32(e.Kind))
		w.PutStr(e.Name)
	}
	return w.B
}

// mapEntryFixed is the encoded size of a map entry with an empty name:
// six 32-bit fields, the name's length among them, and one 64-bit field.
const mapEntryFixed = 6*4 + 8

// DecodeMap parses the map file contents.
func DecodeMap(b []byte) ([]MapEntry, error) {
	w := &wire.Cursor{B: b}
	n := w.Count(mapEntryFixed)
	if w.Err != nil {
		return nil, w.Err
	}
	out := make([]MapEntry, 0, n)
	for i := 0; i < n && w.Err == nil; i++ {
		var e MapEntry
		e.Vaddr = w.U32()
		e.Size = w.U32()
		e.Off = w.I64()
		e.Prot = w.U32()
		e.Shared = w.U32() != 0
		e.Kind = w.I32()
		e.Name = w.Str()
		out = append(out, e)
	}
	return out, w.Err
}

// EncodeCred serializes credentials for the cred file.
func EncodeCred(c types.Cred) []byte {
	w := &wire.Cursor{}
	w.PutU32(uint32(c.RUID))
	w.PutU32(uint32(c.EUID))
	w.PutU32(uint32(c.SUID))
	w.PutU32(uint32(c.RGID))
	w.PutU32(uint32(c.EGID))
	w.PutU32(uint32(c.SGID))
	w.PutU32(uint32(len(c.Groups)))
	for _, g := range c.Groups {
		w.PutU32(uint32(g))
	}
	return w.B
}

// DecodeCred parses the cred file contents.
func DecodeCred(b []byte) (types.Cred, error) {
	w := &wire.Cursor{B: b}
	var c types.Cred
	c.RUID = int(w.I32())
	c.EUID = int(w.I32())
	c.SUID = int(w.I32())
	c.RGID = int(w.I32())
	c.EGID = int(w.I32())
	c.SGID = int(w.I32())
	// At most 256 groups are kept; the rest of a longer list is ignored.
	n := min(w.Count(4), 256)
	for i := 0; i < n; i++ {
		c.Groups = append(c.Groups, int(w.I32()))
	}
	return c, w.Err
}

// EncodeUsage serializes resource usage for the usage file.
func EncodeUsage(u procfs.PrUsage) []byte {
	w := &wire.Cursor{}
	putUsage(w, &u)
	return w.B
}

func putUsage(w *wire.Cursor, u *procfs.PrUsage) {
	for _, v := range [...]int64{
		u.UserTicks, u.SysTicks, u.Syscalls, u.Faults, u.Signals,
		u.ForkedKids, u.VolCtx, u.InvolCtx,
		u.MinorFaults, u.COWFaults, u.WatchRecover, u.StackGrows,
	} {
		w.PutU64(uint64(v))
	}
}

func usage(w *wire.Cursor, u *procfs.PrUsage) {
	for _, f := range [...]*int64{
		&u.UserTicks, &u.SysTicks, &u.Syscalls, &u.Faults, &u.Signals,
		&u.ForkedKids, &u.VolCtx, &u.InvolCtx,
		&u.MinorFaults, &u.COWFaults, &u.WatchRecover, &u.StackGrows,
	} {
		*f = w.I64()
	}
}

// usageSize is the encoded size of a usage record.
const usageSize = 12 * 8

// DecodeUsage parses the usage file contents.
func DecodeUsage(b []byte) (procfs.PrUsage, error) {
	w := &wire.Cursor{B: b}
	var u procfs.PrUsage
	usage(w, &u)
	return u, w.Err
}

// snapHeader is the encoded size of a snapshot's revision, churn flag and
// record count; every record after it is at least minSnapRec bytes.
const (
	snapHeader = 8 + 4 + 4
	minSnapRec = psInfoFixed + usageSize
)

// AppendSnap appends the wire encoding of a whole-table snapshot — the
// revision token, the churn flag, and one psinfo-plus-usage record per
// process — to dst, for the snapshot file and the remote PIOCSNAP result.
// dst grows once, to the exact encoded size, so a caller encoding into a
// response frame copies the table exactly once.
func AppendSnap(dst []byte, sn *procfs.PrSnap) []byte {
	size := snapHeader + len(sn.Procs)*minSnapRec
	for i := range sn.Procs {
		size += len(sn.Procs[i].Info.Comm) + len(sn.Procs[i].Info.Args)
	}
	w := wire.Cursor{B: slices.Grow(dst, size)}
	w.PutU64(sn.Rev)
	if sn.Churned {
		w.PutU32(1)
	} else {
		w.PutU32(0)
	}
	w.PutU32(uint32(len(sn.Procs)))
	for i := range sn.Procs {
		putPSInfo(&w, &sn.Procs[i].Info)
		putUsage(&w, &sn.Procs[i].Usage)
	}
	return w.B
}

// DecodeSnapInto parses an encoded snapshot into sn's outputs (Rev,
// Churned, Procs), decoding each record straight into sn.Procs and reusing
// its capacity. The record count is untrusted: a count the remaining bytes
// cannot hold is rejected before anything is allocated. On error sn.Procs
// is left empty.
func DecodeSnapInto(b []byte, sn *procfs.PrSnap) error {
	w := wire.Cursor{B: b}
	rev := w.U64()
	churned := w.U32() != 0
	n := w.Count(minSnapRec)
	sn.Procs = sn.Procs[:0]
	if w.Err != nil {
		return w.Err
	}
	if cap(sn.Procs) < n {
		sn.Procs = make([]procfs.PrSnapRec, n)
	} else {
		sn.Procs = sn.Procs[:n]
	}
	for i := range sn.Procs {
		psInfo(&w, &sn.Procs[i].Info)
		usage(&w, &sn.Procs[i].Usage)
	}
	if w.Err != nil {
		sn.Procs = sn.Procs[:0]
		return w.Err
	}
	sn.Rev, sn.Churned = rev, churned
	return nil
}
