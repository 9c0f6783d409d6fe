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
	"encoding/binary"
	"errors"
	"slices"

	"repro/internal/kernel"
	"repro/internal/procfs"
	"repro/internal/types"
	"repro/internal/vcpu"
)

// wire is a little-endian-free (big-endian) append/consume codec.
type wire struct {
	b   []byte
	off int
	err error
}

func (w *wire) putU32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *wire) putU64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *wire) putI32(v int32)  { w.putU32(uint32(v)) }
func (w *wire) putStr(s string) {
	w.putU32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// errShortWire reports a truncated buffer.
var errShortWire = errors.New("procfs2: truncated message")

func (w *wire) u32() uint32 {
	if w.err != nil {
		return 0
	}
	if w.off+4 > len(w.b) {
		w.err = errShortWire
		return 0
	}
	v := binary.BigEndian.Uint32(w.b[w.off:])
	w.off += 4
	return v
}

func (w *wire) u64() uint64 {
	if w.err != nil {
		return 0
	}
	if w.off+8 > len(w.b) {
		w.err = errShortWire
		return 0
	}
	v := binary.BigEndian.Uint64(w.b[w.off:])
	w.off += 8
	return v
}

func (w *wire) i32() int32 { return int32(w.u32()) }

func (w *wire) str() string { return w.strAs("") }

// strAs decodes a string into a field that may already hold it: an equal
// string is kept, not allocated again. A snapshot decoded into a reused
// record table mostly finds each record's names unchanged.
func (w *wire) strAs(old string) string {
	n := int(w.u32())
	if w.err != nil {
		return ""
	}
	if n < 0 || w.off+n > len(w.b) {
		w.err = errShortWire
		return ""
	}
	b := w.b[w.off : w.off+n]
	w.off += n
	if string(b) == old {
		return old
	}
	return string(b)
}

func (w *wire) putSigSet(s types.SigSet) {
	w.putU64(s[0])
	w.putU64(s[1])
}

func (w *wire) sigSet() types.SigSet { return types.SigSet{w.u64(), w.u64()} }

func (w *wire) putFltSet(s types.FltSet) {
	w.putU64(s[0])
	w.putU64(s[1])
}

func (w *wire) fltSet() types.FltSet { return types.FltSet{w.u64(), w.u64()} }

func (w *wire) putSysSet(s types.SysSet) {
	for _, v := range s {
		w.putU64(v)
	}
}

func (w *wire) sysSet() types.SysSet {
	var s types.SysSet
	for i := range s {
		s[i] = w.u64()
	}
	return s
}

func (w *wire) putRegs(r vcpu.Regs) {
	for _, v := range r.R {
		w.putU32(v)
	}
	w.putU32(r.PC)
	w.putU32(r.SP)
	w.putU32(r.PSW)
}

func (w *wire) regs() vcpu.Regs {
	var r vcpu.Regs
	for i := range r.R {
		r.R[i] = w.u32()
	}
	r.PC = w.u32()
	r.SP = w.u32()
	r.PSW = w.u32()
	return r
}

// EncodeStatus serializes a ProcStatus for the status/lwpstatus files.
func EncodeStatus(st kernel.ProcStatus) []byte {
	w := &wire{}
	w.putI32(int32(st.Flags))
	w.putI32(int32(st.Why))
	w.putI32(int32(st.What))
	w.putI32(int32(st.CurSig))
	w.putI32(int32(st.Pid))
	w.putI32(int32(st.PPid))
	w.putI32(int32(st.Pgrp))
	w.putI32(int32(st.Sid))
	w.putI32(int32(st.LWPID))
	w.putI32(int32(st.NLWP))
	w.putSigSet(st.SigPend)
	w.putSigSet(st.SigHold)
	w.putRegs(st.Reg)
	w.putI32(int32(st.Syscall))
	for _, a := range st.SysArgs {
		w.putU32(a)
	}
	w.putU64(st.Instret)
	w.putU64(uint64(st.UTime))
	w.putU64(uint64(st.STime))
	w.putU32(st.BrkBase)
	w.putU32(st.BrkSize)
	w.putU32(st.StkBase)
	w.putU32(st.StkSize)
	w.putU64(uint64(st.VSize))
	return w.b
}

// DecodeStatus parses the status file contents.
func DecodeStatus(b []byte) (kernel.ProcStatus, error) {
	w := &wire{b: b}
	var st kernel.ProcStatus
	st.Flags = int(w.i32())
	st.Why = kernel.StopWhy(w.i32())
	st.What = int(w.i32())
	st.CurSig = int(w.i32())
	st.Pid = int(w.i32())
	st.PPid = int(w.i32())
	st.Pgrp = int(w.i32())
	st.Sid = int(w.i32())
	st.LWPID = int(w.i32())
	st.NLWP = int(w.i32())
	st.SigPend = w.sigSet()
	st.SigHold = w.sigSet()
	st.Reg = w.regs()
	st.Syscall = int(w.i32())
	for i := range st.SysArgs {
		st.SysArgs[i] = w.u32()
	}
	st.Instret = w.u64()
	st.UTime = int64(w.u64())
	st.STime = int64(w.u64())
	st.BrkBase = w.u32()
	st.BrkSize = w.u32()
	st.StkBase = w.u32()
	st.StkSize = w.u32()
	st.VSize = int64(w.u64())
	return st, w.err
}

func (w *wire) putPSInfo(info *kernel.PSInfo) {
	w.putI32(int32(info.Pid))
	w.putI32(int32(info.PPid))
	w.putI32(int32(info.Pgrp))
	w.putI32(int32(info.Sid))
	w.putI32(int32(info.UID))
	w.putI32(int32(info.GID))
	w.putU32(uint32(info.State))
	w.putI32(int32(info.Nice))
	w.putU64(uint64(info.VSize))
	w.putU64(uint64(info.Time))
	w.putU64(uint64(info.Start))
	w.putI32(int32(info.NLWP))
	w.putStr(info.Comm)
	w.putStr(info.Args)
}

func (w *wire) psInfo(info *kernel.PSInfo) {
	info.Pid = int(w.i32())
	info.PPid = int(w.i32())
	info.Pgrp = int(w.i32())
	info.Sid = int(w.i32())
	info.UID = int(w.i32())
	info.GID = int(w.i32())
	info.State = byte(w.u32())
	info.Nice = int(w.i32())
	info.VSize = int64(w.u64())
	info.Time = int64(w.u64())
	info.Start = int64(w.u64())
	info.NLWP = int(w.i32())
	info.Comm = w.strAs(info.Comm)
	info.Args = w.strAs(info.Args)
}

// psInfoFixed is the encoded size of a psinfo record with empty strings:
// nine 32-bit fields, three 64-bit fields and two string lengths.
const psInfoFixed = 9*4 + 3*8 + 2*4

// EncodePSInfo serializes a PSInfo for the psinfo file.
func EncodePSInfo(info kernel.PSInfo) []byte {
	w := &wire{}
	w.putPSInfo(&info)
	return w.b
}

// DecodePSInfo parses the psinfo file contents.
func DecodePSInfo(b []byte) (kernel.PSInfo, error) {
	w := &wire{b: b}
	var info kernel.PSInfo
	w.psInfo(&info)
	return info, w.err
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
	w := &wire{}
	w.putU32(uint32(len(entries)))
	for _, e := range entries {
		w.putU32(e.Vaddr)
		w.putU32(e.Size)
		w.putU64(uint64(e.Off))
		w.putU32(e.Prot)
		if e.Shared {
			w.putU32(1)
		} else {
			w.putU32(0)
		}
		w.putI32(e.Kind)
		w.putStr(e.Name)
	}
	return w.b
}

// mapEntryFixed is the encoded size of a map entry with an empty name:
// six 32-bit fields, the name's length among them, and one 64-bit field.
const mapEntryFixed = 6*4 + 8

// DecodeMap parses the map file contents.
func DecodeMap(b []byte) ([]MapEntry, error) {
	w := &wire{b: b}
	n := int(w.u32())
	if w.err != nil {
		return nil, w.err
	}
	// The count is untrusted: one the remaining bytes cannot hold is
	// rejected before the entries are allocated.
	if n < 0 || n > (len(b)-w.off)/mapEntryFixed {
		return nil, errors.New("procfs2: unreasonable map size")
	}
	out := make([]MapEntry, 0, n)
	for i := 0; i < n && w.err == nil; i++ {
		var e MapEntry
		e.Vaddr = w.u32()
		e.Size = w.u32()
		e.Off = int64(w.u64())
		e.Prot = w.u32()
		e.Shared = w.u32() != 0
		e.Kind = w.i32()
		e.Name = w.str()
		out = append(out, e)
	}
	return out, w.err
}

// EncodeCred serializes credentials for the cred file.
func EncodeCred(c types.Cred) []byte {
	w := &wire{}
	w.putI32(int32(c.RUID))
	w.putI32(int32(c.EUID))
	w.putI32(int32(c.SUID))
	w.putI32(int32(c.RGID))
	w.putI32(int32(c.EGID))
	w.putI32(int32(c.SGID))
	w.putU32(uint32(len(c.Groups)))
	for _, g := range c.Groups {
		w.putI32(int32(g))
	}
	return w.b
}

// DecodeCred parses the cred file contents.
func DecodeCred(b []byte) (types.Cred, error) {
	w := &wire{b: b}
	var c types.Cred
	c.RUID = int(w.i32())
	c.EUID = int(w.i32())
	c.SUID = int(w.i32())
	c.RGID = int(w.i32())
	c.EGID = int(w.i32())
	c.SGID = int(w.i32())
	n := int(w.u32())
	for i := 0; i < n && w.err == nil && i < 256; i++ {
		c.Groups = append(c.Groups, int(w.i32()))
	}
	return c, w.err
}

// EncodeUsage serializes resource usage for the usage file.
func EncodeUsage(u procfs.PrUsage) []byte {
	w := &wire{}
	w.putUsage(&u)
	return w.b
}

func (w *wire) putUsage(u *procfs.PrUsage) {
	for _, v := range [...]int64{
		u.UserTicks, u.SysTicks, u.Syscalls, u.Faults, u.Signals,
		u.ForkedKids, u.VolCtx, u.InvolCtx,
		u.MinorFaults, u.COWFaults, u.WatchRecover, u.StackGrows,
	} {
		w.putU64(uint64(v))
	}
}

func (w *wire) usage(u *procfs.PrUsage) {
	for _, f := range [...]*int64{
		&u.UserTicks, &u.SysTicks, &u.Syscalls, &u.Faults, &u.Signals,
		&u.ForkedKids, &u.VolCtx, &u.InvolCtx,
		&u.MinorFaults, &u.COWFaults, &u.WatchRecover, &u.StackGrows,
	} {
		*f = int64(w.u64())
	}
}

// usageSize is the encoded size of a usage record.
const usageSize = 12 * 8

// DecodeUsage parses the usage file contents.
func DecodeUsage(b []byte) (procfs.PrUsage, error) {
	w := &wire{b: b}
	var u procfs.PrUsage
	w.usage(&u)
	return u, w.err
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
	w := wire{b: slices.Grow(dst, size)}
	w.putU64(sn.Rev)
	if sn.Churned {
		w.putU32(1)
	} else {
		w.putU32(0)
	}
	w.putU32(uint32(len(sn.Procs)))
	for i := range sn.Procs {
		w.putPSInfo(&sn.Procs[i].Info)
		w.putUsage(&sn.Procs[i].Usage)
	}
	return w.b
}

// DecodeSnapInto parses an encoded snapshot into sn's outputs (Rev,
// Churned, Procs), decoding each record straight into sn.Procs and reusing
// its capacity. The record count is untrusted: a count the remaining bytes
// cannot hold is rejected before anything is allocated. On error sn.Procs
// is left empty.
func DecodeSnapInto(b []byte, sn *procfs.PrSnap) error {
	w := wire{b: b}
	rev := w.u64()
	churned := w.u32() != 0
	n := int(w.u32())
	sn.Procs = sn.Procs[:0]
	if w.err != nil {
		return w.err
	}
	if n < 0 || n > (len(b)-w.off)/minSnapRec {
		return errShortWire
	}
	if cap(sn.Procs) < n {
		sn.Procs = make([]procfs.PrSnapRec, n)
	} else {
		sn.Procs = sn.Procs[:n]
	}
	for i := range sn.Procs {
		w.psInfo(&sn.Procs[i].Info)
		w.usage(&sn.Procs[i].Usage)
	}
	if w.err != nil {
		sn.Procs = sn.Procs[:0]
		return w.err
	}
	sn.Rev, sn.Churned = rev, churned
	return nil
}
