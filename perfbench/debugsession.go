package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro"
	"repro/internal/kernel"
	"repro/internal/procfs"
	"repro/internal/tools"
	"repro/internal/types"
	"repro/internal/vfs"
)

// debug_session: the paper's debugger loop. One tools.Debugger is attached
// to each of 4 targets while 4 mill processes share the CPU. An op is one
// breakpoint round trip on a seeded target and site: (re)plant the
// breakpoint when the site changes, Cont to the hit, Regs, a 256-byte
// ReadMem of the stack, and a WriteWord to the target's data variable; the
// next Cont on that target resumes it. Every 32nd round detaches its
// debugger instead of writing, and the next round on that target
// re-attaches.
//
// Each target copies the variable to the top of its stack immediately
// before every breakpoint site, so the stack read at a hit shows what the
// target observed after the previous round's write.

const dbgSites = 4

func dbgTargetProg(spin int) string {
	var b strings.Builder
	b.WriteString(`
	movi r6, 0
	movi r7, 64
stk:	push r6			; 64 words of stack: the window the debugger reads
	addi r7, -1
	cmpi r7, 0
	jne stk
	la r2, var
loop:
`)
	for i := 0; i < dbgSites; i++ {
		fmt.Fprintf(&b, `	ld r3, [r2]
	movspr r4
	st r3, [r4]		; observe the variable onto the stack
site%d:	addi r6, 1
	movi r5, %d
w%d:	addi r5, -1
	cmpi r5, 0
	jne w%d
`, i, spin, i, i)
	}
	b.WriteString(`	jmp loop
.data
.align 4
var:	.word 0
`)
	return b.String()
}

// progMill competes for the CPU without making system calls, and the
// targets spin only 5 to 20 iterations between sites, so that a round's
// time goes to the stop machinery and the /proc control path rather than
// to mill system calls, which proc_mill already measures.
const progMill = `
loop:	addi r1, 1
	jmp loop
`

type dbgTarget struct {
	p       *kernel.Proc
	d       *tools.Debugger
	site    int // planted site, -1 for none
	sites   [dbgSites]uint32
	varAddr uint32
	last    uint32 // the value last written to the variable
}

type debugSession struct {
	cfg     config
	tr      *tracer
	s       *repro.System
	kc      *kernelCounters
	cl      *vfs.Client
	targets []*dbgTarget
	mills   []*kernel.Proc
	picks   *deck
	rng     *rand.Rand
	rounds  int
}

func newDebugSession(cfg config, tr *tracer) bench { return &debugSession{cfg: cfg, tr: tr} }

func (b *debugSession) setup() error {
	b.s = repro.NewSystem(repro.Options{NCPU: 1})
	b.rng = rand.New(rand.NewSource(b.cfg.seed))
	spins := []int{5, 10, 15, 20}
	b.rng.Shuffle(len(spins), func(i, j int) { spins[i], spins[j] = spins[j], spins[i] })
	for i, spin := range spins {
		path := fmt.Sprintf("/bin/target%d", i)
		img, err := b.s.Assemble(dbgTargetProg(spin))
		if err != nil {
			return err
		}
		if err := b.s.FS.WriteFile(path, img.Marshal(), 0o755, 0, 0); err != nil {
			return err
		}
		t := &dbgTarget{site: -1}
		for _, sym := range img.Syms {
			var i int
			if sym.Name == "var" {
				t.varAddr = sym.Value
			} else if _, err := fmt.Sscanf(sym.Name, "site%d", &i); err == nil && i < dbgSites {
				t.sites[i] = sym.Value
			}
		}
		if t.p, err = b.s.Spawn(path, []string{path[5:]}, types.UserCred(100+i, 10)); err != nil {
			return err
		}
		b.targets = append(b.targets, t)
	}
	if err := b.s.Install("/bin/mill", progMill, 0o755, 0, 0); err != nil {
		return err
	}
	for i := 0; i < 4; i++ {
		p, err := b.s.Spawn("/bin/mill", []string{"mill"}, types.UserCred(200+i, 10))
		if err != nil {
			return err
		}
		b.mills = append(b.mills, p)
	}
	b.s.Run(20)
	b.cl = b.s.Client(types.RootCred())
	if b.tr != nil {
		ns := vfs.NewNS(b.s.FS.Root())
		proc, err := procfsLayer(b.tr).wrapDir(b.s.Proc.Root())
		if err != nil {
			return err
		}
		if err := ns.Mount("/proc", proc); err != nil {
			return err
		}
		b.cl = &vfs.Client{NS: ns, Cred: types.RootCred()}
		b.kc = newKernelCounters(b.s.K)
	}
	b.picks = newDeck(b.rng, repeat(1, len(b.targets)*dbgSites)...)
	return nil
}

func repeat(w, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = w
	}
	return out
}

func (b *debugSession) run(deadline time.Time, m *measure) error {
	for time.Now().Before(deadline) {
		c := b.picks.draw()
		t, site := b.targets[c/dbgSites], c%dbgSites
		var k0 kcount
		if b.kc != nil {
			t0 := time.Now()
			k0 = b.kc.now()
			m.offClock += time.Since(t0)
		}
		ok := b.tr.begin(kOp)
		start := time.Now()
		ops, err := b.round(t, site, m)
		lat := time.Since(start)
		b.tr.end(ok)
		if b.kc != nil {
			t0 := time.Now()
			m.kc.add(b.kc.now().sub(k0))
			m.offClock += time.Since(t0)
		}
		m.ops++
		m.procfsOps += float64(ops)
		if err != nil {
			m.fail("round %d on pid %d: %v", b.rounds, t.p.Pid, err)
			if t.d != nil {
				t.d.Close()
				t.d = nil
			}
			continue
		}
		m.lat = append(m.lat, us(lat))
		m.userBytes += 256
		if t.d != nil {
			m.userBytes += 4
		}
	}
	return nil
}

// round runs one breakpoint round trip and returns the /proc operations it
// issued. Failed expectations are recorded in m; errors end the round.
func (b *debugSession) round(t *dbgTarget, site int, m *measure) (ops int64, err error) {
	if t.d == nil {
		f, err := b.cl.Open("/proc/"+procfs.PidName(t.p.Pid), vfs.ORead|vfs.OWrite)
		if err != nil {
			return 1, err
		}
		if t.d, err = tools.NewDebuggerFile(b.s, t.p, f); err != nil {
			return 2, err
		}
		ops += 1 + t.d.Ops // the open and the attach
		t.site = -1
	}
	d := t.d
	ops0 := d.Ops
	defer func() { ops += d.Ops - ops0 }()
	if t.site != site {
		if t.site >= 0 {
			if err := d.ClearBreak(t.sites[t.site]); err != nil {
				return ops, err
			}
		}
		if err := d.SetBreak(t.sites[site]); err != nil {
			return ops, err
		}
		t.site = site
	}
	pc := t.sites[site]
	st, err := d.Cont()
	if err != nil {
		return ops, err
	}
	if st.Why != kernel.WhyFaulted || st.What != types.FLTBPT || st.Reg.PC != pc {
		m.fail("pid %d stopped %v/%d at %#x, want the breakpoint at %#x", t.p.Pid, st.Why, st.What, st.Reg.PC, pc)
	}
	regs, err := d.Regs()
	if err != nil {
		return ops, err
	}
	if regs.PC != pc {
		m.fail("pid %d registers show pc %#x, want %#x", t.p.Pid, regs.PC, pc)
	}
	stack, err := d.ReadMem(regs.SP, 256)
	if err != nil {
		return ops, err
	}
	want := t.last
	if b.cfg.breakCheck {
		want++
	}
	if len(stack) != 256 {
		m.fail("pid %d stack read returned %d bytes", t.p.Pid, len(stack))
	} else if got := binary.BigEndian.Uint32(stack); got != want {
		m.fail("pid %d observed %#x in its variable, want %#x", t.p.Pid, got, want)
	}
	b.rounds++
	if b.rounds%32 == 0 {
		// Detach in place of the write: the target may sit at this very
		// site when it is next attached and hit it again without running
		// the observation, so a write now could not be checked.
		err := d.Close()
		t.d = nil
		return ops, err
	}
	v := uint32(b.rng.Int31()) | 1
	if err := d.WriteWord(t.varAddr, v); err != nil {
		return ops, err
	}
	t.last = v
	return ops, nil
}

func (b *debugSession) drain(m *measure) error {
	for _, t := range b.targets {
		if t.d != nil {
			if err := t.d.Close(); err != nil {
				m.fail("detach pid %d: %v", t.p.Pid, err)
			}
			t.d = nil
		}
	}
	b.s.Run(20)
	for _, p := range append(b.procs(), b.mills...) {
		if !p.Alive() {
			m.fail("pid %d died during the session (status %#x)", p.Pid, p.ExitStatus)
			continue
		}
		b.s.K.PostSignal(p, types.SIGKILL)
		if _, err := b.s.WaitExit(p); err != nil {
			return err
		}
	}
	if err := b.s.K.CheckInvariants(); err != nil {
		m.fail("invariants: %v", err)
	}
	return nil
}

func (b *debugSession) procs() []*kernel.Proc {
	var ps []*kernel.Proc
	for _, t := range b.targets {
		ps = append(ps, t.p)
	}
	return ps
}

func (b *debugSession) close() {
	if b.s != nil {
		b.s.Close()
		b.s = nil
	}
}
