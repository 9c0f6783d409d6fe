package kernel

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/ktrace"
	"repro/internal/memfs"
	"repro/internal/types"
	"repro/internal/vfs"
)

// TestTimerFireOrder pins the order in which one clock tick fires timers:
// process by process in pid order, each process's alarm(2) just before its
// own expired sleep(2). Three processes block, then every timer is set to
// expire on the same tick: the lowest pid sleeps, the middle one pauses
// under an alarm, and the highest sleeps under an alarm (the alarm's
// signal interrupts its sleep before the sleep can expire). The kernel-
// wide trace of that tick must match the recorded stream exactly.
func TestTimerFireOrder(t *testing.T) {
	fs := memfs.New(nil)
	k := New(vfs.NewNS(fs.Root()), Config{NCPU: 1})
	k.EnableKTraceAll(1 << 10)
	var procs []*Proc
	for _, src := range []string{
		`	movi r0, SYS_sleep
	movi r1, 1000
	syscall
	movi r0, SYS_exit
	syscall
`,
		`	movi r0, SYS_alarm
	movi r1, 1000
	syscall
	movi r0, SYS_pause
	syscall
	movi r0, SYS_exit
	syscall
`,
		`	movi r0, SYS_alarm
	movi r1, 1000
	syscall
	movi r0, SYS_sleep
	movi r1, 1000
	syscall
	movi r0, SYS_exit
	syscall
`,
	} {
		img, err := asm.Assemble(src, &asm.Options{Predef: Predefs()})
		if err != nil {
			t.Fatal(err)
		}
		path := fmt.Sprintf("/t%d", len(procs))
		if err := fs.WriteFile(path, img.Marshal(), 0o755, 0, 0); err != nil {
			t.Fatal(err)
		}
		p, err := k.Spawn(path, nil, types.UserCred(100, 10), nil)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	sleeper, pauser, both := procs[0], procs[1], procs[2]
	asleep := func() bool {
		for _, p := range procs {
			if !p.LWPs[0].sleeping {
				return false
			}
		}
		return true
	}
	if err := k.RunUntil(asleep, 100); err != nil {
		t.Fatal(err)
	}

	at := k.Now() + 10
	sleeper.LWPs[0].sleepDeadline = at
	pauser.alarmAt = at
	both.alarmAt = at
	both.LWPs[0].sleepDeadline = at
	var got []string
	k.KTTap = func(e *ktrace.Event) {
		got = append(got, fmt.Sprintf("t+%d pid %d %v %d %d", e.Time-at, e.Pid-int32(sleeper.Pid), e.Kind, e.What, e.A))
	}
	for k.Now() < at+5 {
		k.Tick()
	}
	want := []string{
		"t+0 pid 0 lwpstate 0 1", // the sleep expires: sleep -> run
		"t+0 pid 1 sigpost 14 0", // SIGALRM
		"t+0 pid 1 lwpstate 0 1", // pause interrupted
		"t+0 pid 2 sigpost 14 0",
		"t+0 pid 2 lwpstate 0 1", // the sleep, interrupted by its alarm
	}
	if !slices.Equal(got, want) {
		t.Fatalf("timer tick traced\n%q\nwant\n%q", got, want)
	}
}
