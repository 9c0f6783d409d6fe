package kernel_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/types"
	"repro/internal/vcpu"
)

// windowSpin loops over four instructions of its first text page; the exit
// after the loop is never reached.
const windowSpin = `
spin:	nop
	nop
	nop
	jmp spin
	movi r0, SYS_exit
	movi r1, 5
	syscall
`

const textBase = 0x80000000

// TestFetchWindowSeesPlantedBreakpoints pins the fetch window against
// breakpoints planted in a text page that is already private. A planted
// word lands in the live private frame without moving the address space's
// generation, so only the window's aliasing of that frame makes the new
// breakpoint visible. The first breakpoint, on the unreached exit, makes
// the page private; the LWP then runs on it, so its window holds the
// private frame. Between passes a second breakpoint is planted in the loop,
// first through the address space as an as-file write does, then through
// ptrace POKETEXT, and the next pass must stop on it with FLTBPT.
func TestFetchWindowSeesPlantedBreakpoints(t *testing.T) {
	for _, ncpu := range []int{1, 2} {
		t.Run(fmt.Sprintf("ncpu=%d", ncpu), func(t *testing.T) {
			f := bootCfg(t, kernel.Config{NCPU: ncpu})
			p := f.spawn("winbpt", windowSpin, user())
			l := p.Rep()
			bpt, nop := vcpu.Encode(vcpu.OpBPT, 0, 0, 0), vcpu.Encode(vcpu.OpNOP, 0, 0, 0)
			plant := func(addr, w uint32) {
				t.Helper()
				var b [4]byte
				binary.BigEndian.PutUint32(b[:], w)
				f.K.GlobalLock()
				p.Lock()
				defer func() {
					p.Unlock()
					f.K.GlobalUnlock()
				}()
				if _, err := p.AS.WriteAt(b[:], textBase+int64(addr)); err != nil {
					t.Fatal(err)
				}
			}
			stopsAt := func(site uint32) {
				t.Helper()
				f.K.Step()
				why, what := l.Why()
				if !l.Stopped() || why != kernel.WhyFaulted || what != types.FLTBPT || l.CPU.Regs.PC != textBase+site {
					t.Fatalf("after one pass: stopped=%v why=%v what=%d pc=%#x, want FLTBPT at %#x",
						l.Stopped(), why, what, l.CPU.Regs.PC, textBase+site)
				}
			}

			f.K.GlobalLock()
			p.Lock()
			p.Trace.Faults.Add(types.FLTBPT)
			p.Unlock()
			f.K.GlobalUnlock()
			plant(16, bpt)
			if fr, ok := p.AS.PageFrame(textBase); !ok || !fr.Writable {
				t.Fatal("planting a breakpoint did not make the text page private")
			}
			f.K.Run(4)
			if l.Stopped() || !p.Alive() {
				t.Fatal("the spinner is not running on its private text page")
			}

			// Through the address space, as an as-file write.
			plant(8, bpt)
			stopsAt(8)
			plant(8, nop)
			f.K.GlobalLock()
			p.Lock()
			err := f.K.RunLWP(l, kernel.RunFlags{ClearFault: true})
			p.Unlock()
			f.K.GlobalUnlock()
			if err != nil {
				t.Fatal(err)
			}
			f.K.Run(4)
			if l.Stopped() {
				t.Fatal("the spinner did not resume after its breakpoint was lifted")
			}

			// Through ptrace POKETEXT, which needs the child in a ptrace stop.
			c := f.K.PtraceAttach(p)
			f.K.GlobalLock()
			p.Lock()
			f.K.PostSignal(p, types.SIGTRAP)
			p.Unlock()
			f.K.GlobalUnlock()
			if _, err := c.WaitStop(100); err != nil {
				t.Fatal(err)
			}
			if err := c.PokeText(textBase+4, bpt); err != nil {
				t.Fatal(err)
			}
			if err := c.Cont(0); err != nil {
				t.Fatal(err)
			}
			stopsAt(4)
			if err := f.K.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
