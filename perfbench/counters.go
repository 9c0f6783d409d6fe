package main

import (
	"sync"

	"repro/internal/kernel"
	"repro/internal/ktrace"
)

// kcount is the kernel, vCPU and memory work counted in a traced run.
type kcount struct {
	instr, cow, minor, syscalls float64
}

func (a kcount) sub(b kcount) kcount {
	return kcount{a.instr - b.instr, a.cow - b.cow, a.minor - b.minor, a.syscalls - b.syscalls}
}

func (a *kcount) add(b kcount) {
	a.instr += b.instr
	a.cow += b.cow
	a.minor += b.minor
	a.syscalls += b.syscalls
}

// kernelCounters reads the per-process counters a traced run reports:
// retired instructions (each LWP's vCPU), copy-on-write and zero-fill page
// faults (each address space), and system calls (the ktrace counters).
// Processes take their counters with them when they are reaped, so the
// ktrace tap harvests each one as it exits; a total at any moment is what
// the exited processes did plus what the live ones have done so far.
type kernelCounters struct {
	k      *kernel.Kernel
	mu     sync.Mutex
	exited kcount
}

// newKernelCounters turns on the kernel-wide trace ring (without per-process
// rings) and installs the exit harvest.
func newKernelCounters(k *kernel.Kernel) *kernelCounters {
	c := &kernelCounters{k: k}
	k.EnableKTraceAll(1 << 10)
	k.KTDefaultCap = 0
	k.KTTap = c.tap
	return c
}

func (c *kernelCounters) tap(e *ktrace.Event) {
	if e.Kind != ktrace.KExit {
		return
	}
	// The exit event is emitted before the address space is released.
	if p := c.k.Proc(int(e.Pid)); p != nil {
		n := procCount(p)
		c.mu.Lock()
		c.exited.add(n)
		c.mu.Unlock()
	}
}

func procCount(p *kernel.Proc) kcount {
	var n kcount
	for _, l := range p.LWPs {
		n.instr += float64(l.CPU.Instret)
	}
	if p.AS != nil {
		n.cow = float64(p.AS.Stats.COWFaults)
		n.minor = float64(p.AS.Stats.MinorFaults)
	}
	return n
}

// now totals the counters. Call it between scheduler passes.
func (c *kernelCounters) now() kcount {
	c.mu.Lock()
	n := c.exited
	c.mu.Unlock()
	for _, p := range c.k.Procs() {
		if p.Alive() {
			n.add(procCount(p))
		}
	}
	for _, s := range c.k.KTraceStats().PerSys {
		n.syscalls += float64(s)
	}
	return n
}
