package workload

import (
	"fmt"
	"io"

	"repro"
	"repro/internal/kernel"
	"repro/internal/procfs"
	"repro/internal/tools"
	"repro/internal/types"
	"repro/internal/vcpu"
	"repro/internal/vfs"
)

// The scenario programs. Each is assembled once per run and spawned as many
// times as the operation count demands.

// progSpin burns cycles forever; the debugger fleet's victim.
const progSpin = "loop:\tjmp loop\n"

// progPause parks immediately; the cheap body of a large population.
const progPause = `
loop:	movi r0, SYS_pause
	syscall
	jmp loop
`

// progMill makes a system call per loop: the syscall-path grinder.
const progMill = `
loop:	movi r0, SYS_getpid
	syscall
	jmp loop
`

// progForkStorm forks kids children (each exits at once) and reaps them all.
func progForkStorm(kids int) string {
	return fmt.Sprintf(`
	movi r6, 0
fork:	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	movi r0, SYS_exit	; each child exits immediately
	movi r1, 0
	syscall
parent:	addi r6, 1
	cmpi r6, %d
	jne fork
	movi r6, 0
reap:	movi r0, SYS_wait
	movi r1, 0
	syscall
	addi r6, 1
	cmpi r6, %d
	jne reap
	movi r0, SYS_exit
	movi r1, 0
	syscall
`, kids, kids)
}

// progPipe forks; the child delays, then writes 4 x 8 bytes down a pipe;
// the parent's reads block until they arrive, then it reaps and exits.
func progPipe(delay int) string {
	return fmt.Sprintf(`
	movi r0, SYS_pipe
	syscall			; r0 = read fd, r1 = write fd
	mov r6, r0
	mov r7, r1
	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	movi r5, %d		; child: delay so the parent blocks first
cspin:	addi r5, -1
	cmpi r5, 0
	jne cspin
	movi r4, 0
wloop:	movi r0, SYS_write
	mov r1, r7
	la r2, msg
	movi r3, 8
	syscall
	addi r4, 1
	cmpi r4, 4
	jne wloop
	movi r0, SYS_exit
	movi r1, 0
	syscall
parent:	movi r4, 0
rloop:	movi r0, SYS_read	; blocks until the child's write arrives
	mov r1, r6
	la r2, buf
	movi r3, 8
	syscall
	addi r4, 1
	cmpi r4, 4
	jne rloop
	movi r0, SYS_wait
	movi r1, 0
	syscall
	movi r0, SYS_exit
	movi r1, 0
	syscall
.data
msg:	.ascii "pipeline"
buf:	.space 8
`, delay)
}

// progChurn mills one file on the persistent disk: creat, a burst of writes,
// fsync (a blockfs checkpoint), close, unlink — rounds times over — then a
// final sync(2) and exit. Each churner gets its own path so the logical
// workloads are independent while the file system underneath is shared.
func progChurn(id, rounds, writes int) string {
	return fmt.Sprintf(`
	movi r6, 0
loop:	movi r0, SYS_creat
	la r1, path
	movi r2, 420		; 0644
	syscall
	mov r7, r0		; the churn fd
	movi r4, 0
wr:	movi r0, SYS_write
	mov r1, r7
	la r2, data
	movi r3, 512
	syscall
	addi r4, 1
	cmpi r4, %d
	jne wr
	movi r0, SYS_fsync
	mov r1, r7
	syscall
	movi r0, SYS_close
	mov r1, r7
	syscall
	movi r0, SYS_unlink
	la r1, path
	syscall
	addi r6, 1
	cmpi r6, %d
	jne loop
	movi r0, SYS_sync
	syscall
	movi r0, SYS_exit
	movi r1, 0
	syscall
.data
path:	.asciz "/disk/churn%d"
data:	.space 512
`, writes, rounds, id)
}

// runFSChurn drives the persistent-filesystem path from inside the
// simulation: a fleet of processes each milling creat/write/fsync/unlink on
// its own /disk file. One operation is one scheduler pass, so the run
// covers the mill's full mix (journal commits, checkpoint flushes, block
// allocation and free). After the fleet drains, the disk must be empty and
// structurally clean.
func runFSChurn(s *repro.System, cfg Config) (int, error) {
	rng := cfg.rng()
	procs := orDefault(cfg.Procs, 4)
	rounds := orDefault(cfg.Ops, 6)
	if s.Disk == nil {
		return 0, fmt.Errorf("fs_churn: system booted without a disk")
	}
	fleet := make([]*kernel.Proc, 0, procs)
	for i := 0; i < procs; i++ {
		path := fmt.Sprintf("/bin/churn%d", i)
		writes := 2 + rng.Intn(6)
		if err := s.Install(path, progChurn(i, rounds, writes), 0o755, 0, 0); err != nil {
			return 0, err
		}
		p, err := s.Spawn(path, []string{fmt.Sprintf("churn%d", i)}, types.UserCred(100+i%8, 10))
		if err != nil {
			return 0, err
		}
		fleet = append(fleet, p)
	}
	alive := func() bool {
		for _, p := range fleet {
			if p.Alive() {
				return true
			}
		}
		return false
	}
	passes := 0
	for ; alive(); passes++ {
		if passes > 4_000_000 {
			return passes, fmt.Errorf("fs_churn: fleet did not drain")
		}
		s.Step()
	}
	// Every churner unlinked its file, so the disk must come back empty —
	// and the image must pass the structural checker.
	ents, err := s.Client(types.RootCred()).ReadDir("/disk")
	if err != nil {
		return passes, err
	}
	if len(ents) != 0 {
		return passes, fmt.Errorf("fs_churn: %d files left on /disk after drain", len(ents))
	}
	if bad := s.Disk.Fsck(); len(bad) != 0 {
		return passes, fmt.Errorf("fs_churn: fsck reported %d violations: %v", len(bad), bad)
	}
	return passes, nil
}

// runForkStorm drives process creation and reaping: one operation spawns
// a forker (family size chosen by the seeded stream) and runs its whole
// family to completion.
func runForkStorm(s *repro.System, cfg Config) (int, error) {
	rng := cfg.rng()
	ops := orDefault(cfg.Ops, 40)
	variants := []string{"/bin/storm2", "/bin/storm3", "/bin/storm4"}
	for i, path := range variants {
		if err := s.Install(path, progForkStorm(i+2), 0o755, 0, 0); err != nil {
			return 0, err
		}
	}
	for i := 0; i < ops; i++ {
		path := variants[rng.Intn(len(variants))]
		cred := types.UserCred(100+rng.Intn(4), 10)
		if err := spawnAndWait(s, path, fmt.Sprintf("storm%d", i), cred); err != nil {
			return i, err
		}
	}
	return ops, nil
}

// spawnAndWait spawns path and runs it, and its whole family, to exit.
func spawnAndWait(s *repro.System, path, name string, cred types.Cred) error {
	p, err := s.Spawn(path, []string{name}, cred)
	if err != nil {
		return err
	}
	_, err = s.WaitExit(p)
	return err
}

// runSyscallMill spawns a fleet grinding getpid and runs scheduler passes:
// one operation is one Step of the whole system.
func runSyscallMill(s *repro.System, cfg Config) (int, error) {
	procs := orDefault(cfg.Procs, 8)
	ops := orDefault(cfg.Ops, 400)
	if err := s.Install("/bin/mill", progMill, 0o755, 0, 0); err != nil {
		return 0, err
	}
	fleet := make([]*kernel.Proc, 0, procs)
	for i := 0; i < procs; i++ {
		p, err := s.Spawn("/bin/mill", []string{fmt.Sprintf("mill%d", i)}, types.UserCred(100+i%8, 10))
		if err != nil {
			return 0, err
		}
		fleet = append(fleet, p)
	}
	for i := 0; i < ops; i++ {
		s.Step()
	}
	return ops, killAll(s, fleet)
}

// killAll sends SIGKILL to every process of a fleet and waits for each.
func killAll(s *repro.System, fleet []*kernel.Proc) error {
	for _, p := range fleet {
		s.K.PostSignal(p, types.SIGKILL)
	}
	for _, p := range fleet {
		if _, err := s.WaitExit(p); err != nil {
			return err
		}
	}
	return nil
}

// runPipePipeline drives the blocking-I/O path: one operation spawns a
// fork+pipe pair and runs the transfer (blocked reads, wakeups, the reap)
// to completion.
func runPipePipeline(s *repro.System, cfg Config) (int, error) {
	rng := cfg.rng()
	ops := orDefault(cfg.Ops, 30)
	variants := []string{"/bin/pipefast", "/bin/pipeslow"}
	for i, path := range variants {
		if err := s.Install(path, progPipe(60+i*140), 0o755, 0, 0); err != nil {
			return 0, err
		}
	}
	for i := 0; i < ops; i++ {
		path := variants[rng.Intn(len(variants))]
		cred := types.UserCred(100+rng.Intn(4), 10)
		if err := spawnAndWait(s, path, fmt.Sprintf("pipe%d", i), cred); err != nil {
			return i, err
		}
	}
	return ops, nil
}

// runDebuggerFleet drives attach/detach churn over a fleet of targets:
// one operation opens a seeded-random target's /proc file, stops it, reads
// its registers, sets it running and closes — the truss/dbg hot loop.
func runDebuggerFleet(s *repro.System, cfg Config) (int, error) {
	rng := cfg.rng()
	procs := orDefault(cfg.Procs, 6)
	ops := orDefault(cfg.Ops, 80)
	if err := s.Install("/bin/target", progSpin, 0o755, 0, 0); err != nil {
		return 0, err
	}
	fleet := make([]*kernel.Proc, 0, procs)
	for i := 0; i < procs; i++ {
		p, err := s.Spawn("/bin/target", []string{fmt.Sprintf("target%d", i)}, types.UserCred(100+i%8, 10))
		if err != nil {
			return 0, err
		}
		fleet = append(fleet, p)
	}
	s.Run(2)
	for i := 0; i < ops; i++ {
		p := fleet[rng.Intn(len(fleet))]
		// Let the fleet make progress between attaches.
		for n := rng.Intn(3); n > 0; n-- {
			s.Step()
		}
		if err := attachOnce(s, p); err != nil {
			return i, err
		}
	}
	return ops, killAll(s, fleet)
}

// attachOnce opens p's /proc file, stops p, reads its registers, sets it
// running and closes.
func attachOnce(s *repro.System, p *kernel.Proc) error {
	f, err := s.OpenProc(p.Pid, vfs.ORead|vfs.OWrite, types.RootCred())
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Ioctl(procfs.PIOCSTOP, nil); err != nil {
		return err
	}
	var regs vcpu.Regs
	if err := f.Ioctl(procfs.PIOCGREG, &regs); err != nil {
		return err
	}
	return f.Ioctl(procfs.PIOCRUN, nil)
}

// runProcScan populates the system with a large fleet of parked processes
// and runs whole-table sweeps: one operation is one ps or usage sweep (mix
// chosen by the seeded stream), batched through PIOCSNAP.
func runProcScan(s *repro.System, cfg Config) (int, error) {
	rng := cfg.rng()
	procs := orDefault(cfg.Procs, 1000)
	ops := orDefault(cfg.Ops, 12)
	if err := s.Install("/bin/parked", progPause, 0o755, 0, 0); err != nil {
		return 0, err
	}
	for i := 0; i < procs; i++ {
		if _, err := s.Spawn("/bin/parked", []string{fmt.Sprintf("parked%d", i)}, types.UserCred(100+i%16, 10)); err != nil {
			return 0, err
		}
	}
	// Park the population: everyone runs to its pause(2) and blocks.
	s.Run(procs + 50)
	cl := s.Client(types.RootCred())
	for i := 0; i < ops; i++ {
		sweep := tools.FleetUsage
		if rng.Intn(10) < 7 {
			sweep = tools.PS
		}
		if err := sweep(cl, io.Discard); err != nil {
			return i, err
		}
	}
	return ops, nil
}
