package tools

import (
	"fmt"
	"io"

	"repro/internal/kernel"
	"repro/internal/procfs"
	"repro/internal/vfs"
)

// UsageSample is one observation of a process's resource usage and page
// data — the paper's proposed interface "whereby a performance monitor can
// sample page-level referenced and modified information for a process on
// intervals at will".
type UsageSample struct {
	Clock int64
	Usage procfs.PrUsage
	Pages []procfs.PageData
}

// SampleUsage takes one sample through an open /proc file.
func SampleUsage(f *vfs.File, clock int64) (UsageSample, error) {
	s := UsageSample{Clock: clock}
	if err := f.Ioctl(procfs.PIOCUSAGE, &s.Usage); err != nil {
		return s, err
	}
	if err := f.Ioctl(procfs.PIOCPGD, &s.Pages); err != nil {
		return s, err
	}
	return s, nil
}

// ModifiedPages totals the privatized (written) pages across the mappings.
func (s UsageSample) ModifiedPages() int {
	n := 0
	for _, pd := range s.Pages {
		n += pd.PrivatePages
	}
	return n
}

// usageHeader is the fleet-usage column header.
const usageHeader = "  PID COMD          UTIME  STIME SYSCALLS FAULTS MINFLT   COW  VCTX  ICTX\n"

// appendUsageLine appends one fleet-usage line:
// "%5d %-12s %6d %6d %8d %6d %6d %5d %5d %5d\n" of Pid, Comm, UserTicks,
// SysTicks, Syscalls, Faults, MinorFaults, COWFaults, VolCtx, InvolCtx.
func appendUsageLine(b []byte, info *kernel.PSInfo, u *procfs.PrUsage) []byte {
	b = appendCol(b, int64(info.Pid), 5)
	b = appendLeftCol(b, info.Comm, 12)
	b = appendCol(b, u.UserTicks, 6)
	b = appendCol(b, u.SysTicks, 6)
	b = appendCol(b, u.Syscalls, 8)
	b = appendCol(b, u.Faults, 6)
	b = appendCol(b, u.MinorFaults, 6)
	b = appendCol(b, u.COWFaults, 5)
	b = appendCol(b, u.VolCtx, 5)
	b = appendCol(b, u.InvolCtx, 5)
	b[len(b)-1] = '\n' // the last column's separator ends the line
	return b
}

// FleetUsage prints one resource-usage line per live process using the
// batched snapshot: one open of /proc, one PIOCSNAP with usage records.
// Output is line-identical to FleetUsageLegacy on a static process table.
func FleetUsage(cl ProcClient, w io.Writer) error {
	sb, err := snapSweep(cl, true, usageHeader)
	if err != nil {
		return err
	}
	defer sweepBufs.Put(sb)
	for i := range sb.sn.Procs {
		rec := &sb.sn.Procs[i]
		if rec.Info.State == 'Z' {
			// The per-pid path skips zombies: PIOCUSAGE fails once the
			// process has exited.
			continue
		}
		sb.out = appendUsageLine(sb.out, &rec.Info, &rec.Usage)
	}
	_, err = w.Write(sb.out)
	return err
}

// FleetUsageLegacy is the per-pid sweep: readdir /proc, then one open and
// two ioctls (PIOCPSINFO, PIOCUSAGE) per process.
func FleetUsageLegacy(cl ProcClient, w io.Writer) error {
	ents, err := cl.ReadDir("/proc")
	if err != nil {
		return err
	}
	b := make([]byte, 0, len(usageHeader)+len(ents)*lineHint)
	b = append(b, usageHeader...)
	for _, e := range ents {
		f, err := cl.Open("/proc/"+e.Name, vfs.ORead)
		if err != nil {
			continue // exited between readdir and open
		}
		var info kernel.PSInfo
		var u procfs.PrUsage
		err = f.Ioctl(procfs.PIOCPSINFO, &info)
		if err == nil {
			err = f.Ioctl(procfs.PIOCUSAGE, &u)
		}
		f.Close()
		if err != nil {
			continue // became a zombie under the open handle
		}
		b = appendUsageLine(b, &info, &u)
	}
	_, err = w.Write(b)
	return err
}

// UsageMonitor samples a process at intervals, driving the simulation
// between samples, and reports per-interval deltas.
type UsageMonitor struct {
	F    *vfs.File
	Out  io.Writer
	prev *UsageSample
}

// Report takes a sample and prints the deltas since the previous one.
func (m *UsageMonitor) Report(clock int64) (UsageSample, error) {
	s, err := SampleUsage(m.F, clock)
	if err != nil {
		return s, err
	}
	if m.prev != nil && m.Out != nil {
		p := m.prev
		fmt.Fprintf(m.Out,
			"t+%06d: +%4d utime +%4d stime +%3d syscalls +%3d faults +%3d minor +%2d cow, %d pages modified\n",
			s.Clock,
			s.Usage.UserTicks-p.Usage.UserTicks,
			s.Usage.SysTicks-p.Usage.SysTicks,
			s.Usage.Syscalls-p.Usage.Syscalls,
			s.Usage.Faults-p.Usage.Faults,
			s.Usage.MinorFaults-p.Usage.MinorFaults,
			s.Usage.COWFaults-p.Usage.COWFaults,
			s.ModifiedPages(),
		)
	}
	m.prev = &s
	return s, nil
}
