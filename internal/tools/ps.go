// Package tools implements the applications the paper describes on top of
// /proc: ps(1) (via PIOCPSINFO), a Figure-1 style directory lister, a
// Figure-2 style memory map reporter, truss(1) (system call tracing via
// entry/exit stops), and a breakpoint debugger — in both its /proc form and
// the obsolete ptrace form the paper compares against.
package tools

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/kernel"
	"repro/internal/procfs"
	"repro/internal/vfs"
)

// ProcClient is the name-space access the /proc sweeps need: Open and
// ReadDir. Both *vfs.Client and *rfs.Client satisfy it, so every tool here
// runs unmodified against a remote /proc.
type ProcClient interface {
	Open(path string, flags int) (*vfs.File, error)
	ReadDir(path string) ([]vfs.Dirent, error)
}

// Snapshot takes one batched PIOCSNAP through a fresh open of the /proc
// directory: the one-open-one-ioctl protocol the per-pid sweep is measured
// against. The caller seeds sn with the filter, usage flag and any prior
// revision token.
func Snapshot(cl ProcClient, sn *procfs.PrSnap) error {
	f, err := cl.Open("/proc", vfs.ORead)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Ioctl(procfs.PIOCSNAP, sn)
}

// The sweeps render their listings with strconv appends into one buffer
// and make a single Write: fmt's per-argument formatting would be most of
// a large sweep's client time. Each line is byte-identical to the format
// string quoted above its append function.

// psHeader is the ps column header.
const psHeader = "  PID  PPID  UID  GID  S      VSZ   TIME COMD\n"

// lineHint is a typical rendered line's length, for presizing a listing.
const lineHint = 64

// appendPSLine appends one ps line:
// "%5d %5d %4d %4d %2c %8d %6d %s\n" of Pid, PPid, UID, GID, State,
// VSize, Time, Comm.
func appendPSLine(b []byte, info *kernel.PSInfo) []byte {
	b = appendCol(b, int64(info.Pid), 5)
	b = appendCol(b, int64(info.PPid), 5)
	b = appendCol(b, int64(info.UID), 4)
	b = appendCol(b, int64(info.GID), 4)
	b = append(b, ' ') // %2c: one rune, padded to two
	b = utf8.AppendRune(b, rune(info.State))
	b = append(b, ' ')
	b = appendCol(b, info.VSize, 8)
	b = appendCol(b, info.Time, 6)
	b = append(b, info.Comm...)
	return append(b, '\n')
}

// appendCol appends v right-aligned in width columns and a separating
// space: fmt's "%<width>d ".
func appendCol(b []byte, v int64, width int) []byte {
	var d [20]byte
	digits := strconv.AppendInt(d[:0], v, 10)
	for n := len(digits); n < width; n++ {
		b = append(b, ' ')
	}
	b = append(b, digits...)
	return append(b, ' ')
}

// appendLeftCol appends s left-aligned in width columns, counted in runes,
// and a separating space: fmt's "%-<width>s ".
func appendLeftCol(b []byte, s string, width int) []byte {
	b = append(b, s...)
	for n := utf8.RuneCountInString(s); n < width; n++ {
		b = append(b, ' ')
	}
	return append(b, ' ')
}

// sweepBuf is the scratch of one batched sweep: the snapshot's record
// table and the rendered listing. A 1000-process sweep fills about 230 KB
// of records and 60 KB of text, so a tool that sweeps in a loop recycles
// both (sweepBufs) instead of allocating them every time.
type sweepBuf struct {
	sn  procfs.PrSnap
	out []byte
}

// sweepBufs recycles sweep scratch across calls; sweeps may run
// concurrently.
var sweepBufs = sync.Pool{New: func() any { return new(sweepBuf) }}

// snapSweep takes a batched snapshot into recycled scratch, with a fresh
// filter and no prior revision, and returns the scratch with its listing
// buffer emptied and grown for the header and one line per record. The
// caller puts it back in sweepBufs.
func snapSweep(cl ProcClient, withUsage bool, header string) (*sweepBuf, error) {
	sb := sweepBufs.Get().(*sweepBuf)
	sb.sn = procfs.PrSnap{WithUsage: withUsage, Procs: sb.sn.Procs}
	if err := Snapshot(cl, &sb.sn); err != nil {
		sweepBufs.Put(sb)
		return nil, err
	}
	sb.out = append(slices.Grow(sb.out[:0], len(header)+len(sb.sn.Procs)*lineHint), header...)
	return sb, nil
}

// PS implements ps(1) over the batched snapshot: one open of the /proc
// directory and one PIOCSNAP return every line's worth of data, and the
// whole listing — not just each line — is a true snapshot of the system.
// Output is line-identical to PSLegacy on a static process table.
func PS(cl ProcClient, w io.Writer) error {
	sb, err := snapSweep(cl, false, psHeader)
	if err != nil {
		return err
	}
	defer sweepBufs.Put(sb)
	for i := range sb.sn.Procs {
		sb.out = appendPSLine(sb.out, &sb.sn.Procs[i].Info)
	}
	_, err = w.Write(sb.out)
	return err
}

// PSLegacy implements the SVR4 ps(1) logic the paper describes: read the
// /proc directory, open each process file read-only, issue the PIOCPSINFO
// request, close the file, and print the result. Because all the
// information for a process is obtained in a single operation, each line is
// a true snapshot of the process, even though the complete listing is not a
// true snapshot of the whole system.
func PSLegacy(cl ProcClient, w io.Writer) error {
	ents, err := cl.ReadDir("/proc")
	if err != nil {
		return err
	}
	b := make([]byte, 0, len(psHeader)+len(ents)*lineHint)
	b = append(b, psHeader...)
	for _, e := range ents {
		info, err := PSInfoOf(cl, e.Name)
		if err != nil {
			// The process may have exited between readdir and open.
			continue
		}
		b = appendPSLine(b, &info)
	}
	_, err = w.Write(b)
	return err
}

// PSInfoOf fetches one process's PIOCPSINFO by directory entry name.
func PSInfoOf(cl ProcClient, name string) (kernel.PSInfo, error) {
	f, err := cl.Open("/proc/"+name, vfs.ORead)
	if err != nil {
		return kernel.PSInfo{}, err
	}
	defer f.Close()
	var info kernel.PSInfo
	if err := f.Ioctl(procfs.PIOCPSINFO, &info); err != nil {
		return kernel.PSInfo{}, err
	}
	return info, nil
}

// LsProc renders "ls -l /proc" in the style of the paper's Figure 1.
func LsProc(cl ProcClient, w io.Writer, names func(uid, gid int) (string, string)) error {
	if names == nil {
		names = func(uid, gid int) (string, string) {
			return strconv.Itoa(uid), strconv.Itoa(gid)
		}
	}
	ents, err := cl.ReadDir("/proc")
	if err != nil {
		return err
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
	for _, e := range ents {
		user, group := names(e.Attr.UID, e.Attr.GID)
		fmt.Fprintf(w, "-%s %2d %-8s %-8s %8d %s %s\n",
			vfs.FmtMode(e.Attr.Mode), e.Attr.Nlink, user, group,
			e.Attr.Size, fmtTime(e.Attr.MTime), e.Name)
	}
	return nil
}

// fmtTime renders the simulated clock as a timestamp-like column.
func fmtTime(ticks int64) string {
	return fmt.Sprintf("t+%08d", ticks)
}

// PrMap renders the memory map of a process in the style of the paper's
// Figure 2, using PIOCMAP.
func PrMap(cl ProcClient, pid int, w io.Writer) error {
	f, err := cl.Open("/proc/"+procfs.PidName(pid), vfs.ORead)
	if err != nil {
		return err
	}
	defer f.Close()
	var maps []procfs.PrMap
	if err := f.Ioctl(procfs.PIOCMAP, &maps); err != nil {
		return err
	}
	for _, m := range maps {
		kb := (int64(m.Size) + 1023) / 1024
		attrs := ""
		if m.Shared {
			attrs = " shared"
		}
		kind := ""
		if m.Kind.String() != "" {
			kind = " [" + m.Kind.String() + "]"
		}
		fmt.Fprintf(w, "%08X %6dK %-10s%s%s %s\n", m.Vaddr, kb, m.Prot, attrs, kind, m.Name)
	}
	return nil
}
