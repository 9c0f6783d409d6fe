package kernel

import "fmt"

// Errno is a simulated UNIX error number; 0 means success.
type Errno int

// Error numbers (classic System V values).
const (
	EPERM   Errno = 1
	ENOENT  Errno = 2
	ESRCH   Errno = 3
	EINTR   Errno = 4
	EIO     Errno = 5
	ENOEXEC Errno = 8
	EBADF   Errno = 9
	ECHILD  Errno = 10
	EAGAIN  Errno = 11
	ENOMEM  Errno = 12
	EACCES  Errno = 13
	EFAULT  Errno = 14
	EBUSY   Errno = 16
	EEXIST  Errno = 17
	ENOTDIR Errno = 20
	EISDIR  Errno = 21
	EINVAL  Errno = 22
	ENFILE  Errno = 23
	EMFILE  Errno = 24
	ENOTTY  Errno = 25
	EFBIG   Errno = 27
	ENOSPC  Errno = 28
	EPIPE   Errno = 32
	ERANGE  Errno = 34
	ENOSYS  Errno = 89
)

var errnoNames = map[Errno]string{
	EPERM: "EPERM", ENOENT: "ENOENT", ESRCH: "ESRCH", EINTR: "EINTR",
	EIO: "EIO", ENOEXEC: "ENOEXEC", EBADF: "EBADF", ECHILD: "ECHILD",
	EAGAIN: "EAGAIN", ENOMEM: "ENOMEM", EACCES: "EACCES", EFAULT: "EFAULT",
	EBUSY: "EBUSY", EEXIST: "EEXIST", ENOTDIR: "ENOTDIR", EISDIR: "EISDIR",
	EINVAL: "EINVAL", ENFILE: "ENFILE", EMFILE: "EMFILE", ENOTTY: "ENOTTY",
	EFBIG: "EFBIG", ENOSPC: "ENOSPC", EPIPE: "EPIPE", ERANGE: "ERANGE",
	ENOSYS: "ENOSYS",
}

// String names the errno.
func (e Errno) String() string {
	if e == 0 {
		return "OK"
	}
	if n, ok := errnoNames[e]; ok {
		return n
	}
	return fmt.Sprintf("E%d", int(e))
}

// Error implements error.
func (e Errno) Error() string { return e.String() }

// System call numbers, following System V numbering where one exists.
// There is no system call number 0.
const (
	SysExit      = 1
	SysFork      = 2
	SysRead      = 3
	SysWrite     = 4
	SysOpen      = 5
	SysClose     = 6
	SysWait      = 7
	SysCreat     = 8
	SysUnlink    = 10
	SysExec      = 11
	SysChdir     = 12
	SysTime      = 13
	SysChmod     = 15
	SysBrk       = 17
	SysLseek     = 19
	SysGetpid    = 20
	SysSetuid    = 23
	SysGetuid    = 24
	SysPtrace    = 26
	SysAlarm     = 27
	SysPause     = 29
	SysAccess    = 33
	SysNice      = 34
	SysSync      = 36
	SysKill      = 37
	SysDup       = 41
	SysPipe      = 42
	SysTimes     = 43
	SysSetgid    = 46
	SysGetgid    = 47
	SysSignal    = 48
	SysIoctl     = 54
	SysUmask     = 60
	SysVfork     = 66
	SysGetdents  = 81
	SysGetpgrp   = 63
	SysSetpgrp   = 64
	SysSleep     = 90
	SysSigreturn = 93
	SysSigmask   = 95
	SysSigsusp   = 96
	SysMmap      = 115
	SysMprotect  = 116
	SysMunmap    = 117
	SysFsync     = 118
	SysLwpCreate = 170
	SysLwpExit   = 171
	SysLwpSelf   = 172
	SysYield     = 173
	MaxSysNum    = 180
)

// sysent describes one system call for dispatch and for truss.
type sysent struct {
	Name  string
	NArgs int
	// Handler runs the call. It may return sleepOn non-nil to block; the
	// call is then retried from scratch when the LWP wakes — the classic
	// "while (condition) sleep()" structure.
	Handler func(k *Kernel, l *LWP) sysResult
}

// sysResult is the outcome of a system call handler.
type sysResult struct {
	R0, R1  uint32 // return values
	Err     Errno
	SleepOn *waitq // non-nil: block and retry when woken
	// NoReturn marks calls that do not return normally (exit, lwp_exit).
	NoReturn bool
	// SkipStore suppresses storing R0/carry — sigreturn restores the full
	// register context itself.
	SkipStore bool
}

func ret(v uint32) sysResult     { return sysResult{R0: v} }
func ret2(a, b uint32) sysResult { return sysResult{R0: a, R1: b} }
func rerr(e Errno) sysResult     { return sysResult{Err: e} }
func rsleep(q *waitq) sysResult  { return sysResult{SleepOn: q} }

var sysTable [MaxSysNum + 1]sysent

// Lock classes: the lock a CPU must hold to dispatch a system call
// (run.go). At NCPU=1 the locks are no-ops, but taking one still folds the
// CPU's tick deltas in.
//
//   - sysLockNone: the handler reads only its own process's stable or
//     atomically-maintained state — no lock at all, so a fleet of getpid
//     grinders scales with CPUs.
//   - sysLockProc: the handler touches only the calling process's own
//     state (address space, time/usage accounting, dispositions, masks,
//     identity mutations) — the per-process lock, under which inspectors
//     (procfs) and cross-process writers (kill's permission check,
//     SIGCHLD posting) also access those fields.
//   - sysLockGlobal: everything else — anything that can sleep, touch
//     another process, or go through the (unsynchronized) file system
//     layers takes the narrow global lock.
//
// A call may be sysLockProc only if its handler performs no cross-process
// access, no file-system access, no ktrace emission, and no sleeping.
type sysLockKind uint8

const (
	sysLockGlobal sysLockKind = iota // zero value: global is the safe default
	sysLockProc
	sysLockNone
)

var sysLockClass = [MaxSysNum + 1]sysLockKind{
	SysGetpid:   sysLockNone, // Pid immutable; ppid kept in an atomic
	SysGetuid:   sysLockNone, // own Cred, written only by this process's own calls
	SysGetgid:   sysLockNone,
	SysGetpgrp:  sysLockNone, // own Pgrp, written only by this process's setpgrp
	SysLwpSelf:  sysLockNone, // own LWP id
	SysYield:    sysLockNone, // no state at all
	SysBrk:      sysLockProc, // own address space; shootdown withdraws curAS
	SysMmap:     sysLockProc,
	SysMunmap:   sysLockProc,
	SysMprotect: sysLockProc,
	SysTime:     sysLockProc, // atomic clock; classed proc so the flush runs
	SysTimes:    sysLockProc, // own usage, flushed under this same lock
	SysUmask:    sysLockProc, // own umask
	SysNice:     sysLockProc, // own nice
	SysSetuid:   sysLockProc, // own creds; kill's permission check takes this lock
	SysSetgid:   sysLockProc,
	SysSetpgrp:  sysLockProc, // own pgrp; kill's group sweep takes this lock
	SysSignal:   sysLockProc, // own dispositions; cross-CPU posters take this lock
	SysSigmask:  sysLockProc, // own hold mask; PostSignal reads it under this lock
}

// sysClassOf returns the lock class for a system call number; out-of-range
// numbers dispatch to the ENOSYS path under the global lock.
func sysClassOf(num int) sysLockKind {
	if num < 1 || num > MaxSysNum {
		return sysLockGlobal
	}
	return sysLockClass[num]
}

func init() {
	sysTable[SysExit] = sysent{"exit", 1, sysExit}
	sysTable[SysFork] = sysent{"fork", 0, sysFork}
	sysTable[SysRead] = sysent{"read", 3, sysRead}
	sysTable[SysWrite] = sysent{"write", 3, sysWrite}
	sysTable[SysOpen] = sysent{"open", 2, sysOpen}
	sysTable[SysClose] = sysent{"close", 1, sysClose}
	sysTable[SysWait] = sysent{"wait", 1, sysWait}
	sysTable[SysCreat] = sysent{"creat", 2, sysCreat}
	sysTable[SysUnlink] = sysent{"unlink", 1, sysUnlink}
	sysTable[SysExec] = sysent{"exec", 1, sysExec}
	sysTable[SysChdir] = sysent{"chdir", 1, sysChdir}
	sysTable[SysSync] = sysent{"sync", 0, sysSync}
	sysTable[SysFsync] = sysent{"fsync", 1, sysFsync}
	sysTable[SysTime] = sysent{"time", 0, sysTime}
	sysTable[SysChmod] = sysent{"chmod", 2, sysChmod}
	sysTable[SysBrk] = sysent{"brk", 1, sysBrk}
	sysTable[SysLseek] = sysent{"lseek", 3, sysLseek}
	sysTable[SysGetpid] = sysent{"getpid", 0, sysGetpid}
	sysTable[SysSetuid] = sysent{"setuid", 1, sysSetuid}
	sysTable[SysGetuid] = sysent{"getuid", 0, sysGetuid}
	sysTable[SysPtrace] = sysent{"ptrace", 4, sysPtrace}
	sysTable[SysAlarm] = sysent{"alarm", 1, sysAlarm}
	sysTable[SysPause] = sysent{"pause", 0, sysPause}
	sysTable[SysAccess] = sysent{"access", 2, sysAccess}
	sysTable[SysNice] = sysent{"nice", 1, sysNice}
	sysTable[SysKill] = sysent{"kill", 2, sysKill}
	sysTable[SysDup] = sysent{"dup", 1, sysDup}
	sysTable[SysPipe] = sysent{"pipe", 0, sysPipe}
	sysTable[SysTimes] = sysent{"times", 0, sysTimes}
	sysTable[SysSetgid] = sysent{"setgid", 1, sysSetgid}
	sysTable[SysGetgid] = sysent{"getgid", 0, sysGetgid}
	sysTable[SysSignal] = sysent{"signal", 2, sysSignal}
	sysTable[SysIoctl] = sysent{"ioctl", 3, sysIoctl}
	sysTable[SysUmask] = sysent{"umask", 1, sysUmask}
	sysTable[SysGetpgrp] = sysent{"getpgrp", 0, sysGetpgrp}
	sysTable[SysSetpgrp] = sysent{"setpgrp", 0, sysSetpgrp}
	sysTable[SysVfork] = sysent{"vfork", 0, sysVfork}
	sysTable[SysGetdents] = sysent{"getdents", 3, sysGetdents}
	sysTable[SysSleep] = sysent{"sleep", 1, sysSleep}
	sysTable[SysSigreturn] = sysent{"sigreturn", 0, sysSigreturn}
	sysTable[SysSigmask] = sysent{"sigprocmask", 3, sysSigmask}
	sysTable[SysSigsusp] = sysent{"sigsuspend", 2, sysSigsusp}
	sysTable[SysMmap] = sysent{"mmap", 4, sysMmap}
	sysTable[SysMprotect] = sysent{"mprotect", 3, sysMprotect}
	sysTable[SysMunmap] = sysent{"munmap", 2, sysMunmap}
	sysTable[SysLwpCreate] = sysent{"lwp_create", 2, sysLwpCreate}
	sysTable[SysLwpExit] = sysent{"lwp_exit", 0, sysLwpExit}
	sysTable[SysLwpSelf] = sysent{"lwp_self", 0, sysLwpSelf}
	sysTable[SysYield] = sysent{"yield", 0, sysYield}
}

// SyscallName returns the name for truss-style reporting.
func SyscallName(num int) string {
	if num >= 1 && num <= MaxSysNum && sysTable[num].Name != "" {
		return sysTable[num].Name
	}
	return fmt.Sprintf("sys#%d", num)
}

// SyscallNumber returns the number for a name, or 0.
func SyscallNumber(name string) int {
	for i := 1; i <= MaxSysNum; i++ {
		if sysTable[i].Name == name {
			return i
		}
	}
	return 0
}

// SyscallArity returns the declared argument count (for truss formatting).
func SyscallArity(num int) int {
	if num >= 1 && num <= MaxSysNum {
		return sysTable[num].NArgs
	}
	return 0
}

// Predefs returns assembler predefined symbols: SYS_* numbers and SIG*
// numbers, so example programs can be written symbolically.
func Predefs() map[string]uint32 {
	m := make(map[string]uint32)
	for i := 1; i <= MaxSysNum; i++ {
		if sysTable[i].Name != "" {
			m["SYS_"+sysTable[i].Name] = uint32(i)
		}
	}
	for sig := 1; sig < 32; sig++ {
		m[sigNameFor(sig)] = uint32(sig)
	}
	return m
}

// copyinStr reads a NUL-terminated string from user memory.
func (k *Kernel) copyinStr(l *LWP, addr uint32) (string, Errno) {
	var out []byte
	buf := make([]byte, 64)
	for len(out) < 4096 {
		n, err := l.CPU.AS.ReadAt(buf, int64(addr)+int64(len(out)))
		if err != nil || n == 0 {
			return "", EFAULT
		}
		for i := 0; i < n; i++ {
			if buf[i] == 0 {
				return string(out), 0
			}
			out = append(out, buf[i])
		}
	}
	return "", ERANGE
}

// copyin reads n bytes of user memory.
func (k *Kernel) copyin(l *LWP, addr uint32, n int) ([]byte, Errno) {
	buf := make([]byte, n)
	got, err := l.CPU.AS.ReadAt(buf, int64(addr))
	if err != nil || got != n {
		return nil, EFAULT
	}
	return buf, 0
}

// copyout writes bytes to user memory.
func (k *Kernel) copyout(l *LWP, addr uint32, b []byte) Errno {
	n, err := l.CPU.AS.WriteAt(b, int64(addr))
	if err != nil || n != len(b) {
		return EFAULT
	}
	return 0
}

// copyoutWord writes one 32-bit word to user memory.
func (k *Kernel) copyoutWord(l *LWP, addr uint32, v uint32) Errno {
	return k.copyout(l, addr, []byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}
