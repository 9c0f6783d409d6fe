package kernel

import (
	"repro/internal/types"
	"repro/internal/vcpu"
	"repro/internal/vfs"
)

// initialSP is the initial user stack pointer (the top of the stack
// mapping); it matches the xout layout conventions.
const initialSP = 0x7FFF8000

// vcpuRegsAt returns a fresh register set positioned at entry with the
// conventional initial stack pointer.
func vcpuRegsAt(entry uint32) vcpu.Regs {
	return vcpu.Regs{PC: entry, SP: initialSP}
}

func fpZero() vcpu.FPRegs { return vcpu.FPRegs{} }

// Spawn creates a new process running the executable at path with the given
// credentials. parent may be nil, in which case the process becomes a child
// of init (or parentless, for init itself). The new process has not executed
// any instruction yet, so a controlling program can establish tracing flags
// before it runs.
func (k *Kernel) Spawn(path string, args []string, cred types.Cred, parent *Proc) (*Proc, error) {
	if parent == nil {
		parent = k.initProc
	}
	p := &Proc{
		k:   k,
		Pid: k.allocPid(),
		procState: procState{
			Parent: parent,
			Cred:   cred.Clone(),
			CWD:    "/",
			Umask:  0o22,
			Start:  k.Now(),
		},
		fds: map[int]*vfs.File{},
	}
	if parent != nil {
		p.Pgrp = parent.Pgrp
		p.Sid = parent.Sid
		parent.Kids = append(parent.Kids, p)
	}
	if p.Pgrp == 0 {
		p.Pgrp = p.Pid
		p.Sid = p.Pid
	}
	k.addProc(p)
	p.newLWP()
	if err := k.Exec(p, path, args); err != nil {
		k.exitProc(p, statusExited(127))
		k.reap(p)
		return nil, err
	}
	return p, nil
}
