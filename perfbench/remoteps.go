package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro"
	"repro/internal/kernel"
	"repro/internal/procfs"
	"repro/internal/rfs"
	"repro/internal/tools"
	"repro/internal/types"
	"repro/internal/vfs"
)

// remote_ps: 1000 parked processes plus 8 forkers that create and reap
// short-lived children between sweeps, so every sweep sees a changed
// process table. An op is one sweep through an rfs.Client on a mux
// transport over loopback TCP: from a seeded deck, 70% tools.PS and 30%
// tools.FleetUsage. The scheduler steps between sweeps, untimed.

const progPause = `
loop:	movi r0, SYS_pause
	syscall
	jmp loop
`

const forkerChildStatus = 3

var progForker = fmt.Sprintf(`
loop:	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	movi r0, SYS_exit	; the child exits at once
	movi r1, %d
	syscall
parent:	movi r0, SYS_wait
	movi r1, 0
	syscall
	cmpi r1, %d
	jne bad
	jmp loop
bad:	movi r0, SYS_exit
	movi r1, 99
	syscall
`, forkerChildStatus, forkerChildStatus<<8)

type remotePS struct {
	cfg config
	tr  *tracer
	s   *repro.System

	lock     sync.Mutex // the server lock; the benchmark holds it while it steps
	srv      *rfs.Server
	ln       net.Listener
	served   sync.WaitGroup
	mt       *rfs.MuxTransport
	cl       *rfs.Client
	local    *vfs.Client // the reference sweep on the kernel's own name space
	localRFS *rfs.Client // traced: the same sweep over rfs.LocalTransport

	forkers  []*kernel.Proc
	steps    *deck // scheduler passes between sweeps, 1 to 4
	kinds    *deck // 0: ps, 1: usage
	sweeps   int
	out, ref bytes.Buffer
}

func newRemotePS(cfg config, tr *tracer) bench { return &remotePS{cfg: cfg, tr: tr} }

func (b *remotePS) setup() error {
	b.s = repro.NewSystem(repro.Options{NCPU: 1})
	rng := rand.New(rand.NewSource(b.cfg.seed))
	parked, forkers := 1000, 8
	if b.cfg.tiny {
		parked, forkers = 40, 2
	}
	if err := b.s.Install("/bin/parked", progPause, 0o755, 0, 0); err != nil {
		return err
	}
	if err := b.s.Install("/bin/forker", progForker, 0o755, 0, 0); err != nil {
		return err
	}
	for i := 0; i < parked; i++ {
		if _, err := b.s.Spawn("/bin/parked", []string{fmt.Sprintf("parked%d", i)}, types.UserCred(100+i%16, 10)); err != nil {
			return err
		}
	}
	for i := 0; i < forkers; i++ {
		p, err := b.s.Spawn("/bin/forker", []string{fmt.Sprintf("forker%d", i)}, types.UserCred(300+i, 10))
		if err != nil {
			return err
		}
		b.forkers = append(b.forkers, p)
	}
	b.s.Run(parked + 50) // park the population
	b.steps = newDeck(rng, 1, 1, 1, 1)
	b.kinds = newDeck(rng, 7, 3)

	ns := b.s.NS
	if b.tr != nil {
		ns = vfs.NewNS(b.s.FS.Root())
		proc, err := procfsLayer(b.tr).wrapDir(b.s.Proc.Root())
		if err != nil {
			return err
		}
		if err := ns.Mount("/proc", proc); err != nil {
			return err
		}
	}
	b.srv = rfs.NewServer(ns, &b.lock)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.ln = ln
	b.served.Add(1)
	go b.accept()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	if b.tr != nil {
		conn = &wConn{Conn: conn, tr: b.tr}
	}
	if b.mt, err = rfs.NewMuxTransport(conn); err != nil {
		conn.Close()
		return err
	}
	var tp rfs.Transport = b.mt
	if b.tr != nil {
		tp = &wTransport{tr: b.tr, t: b.mt}
		b.localRFS = rfs.NewClient(rfs.LocalTransport{S: b.srv}, types.RootCred())
	}
	b.cl = rfs.NewClient(tp, types.RootCred())
	b.local = b.s.Client(types.RootCred())
	return nil
}

// accept serves every connection until the listener closes.
func (b *remotePS) accept() {
	defer b.served.Done()
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			return
		}
		b.served.Add(1)
		go func() {
			defer b.served.Done()
			defer conn.Close()
			b.srv.ServeConn(conn)
		}()
	}
}

func sweep(cl tools.ProcClient, usage bool, w io.Writer) error {
	if usage {
		return tools.FleetUsage(cl, w)
	}
	return tools.PS(cl, w)
}

func (b *remotePS) run(deadline time.Time, m *measure) error {
	procfsKinds := []kind{kProcCtl, kProcWait, kProcIO, kProcSnap, kProcMeta}
	procfsCalls := func() (n int64) {
		for _, k := range procfsKinds {
			if b.tr != nil {
				n += b.tr.stat(k).n
			}
		}
		return n
	}
	calls0 := procfsCalls()
	for time.Now().Before(deadline) {
		b.lock.Lock()
		for n := b.steps.draw() + 1; n > 0; n-- {
			b.s.Step()
		}
		b.lock.Unlock()
		if err := b.sweep(m); err != nil {
			return err
		}
	}
	m.procfsOps += float64(procfsCalls() - calls0)
	return nil
}

// sweep runs one timed remote sweep and checks it against the quiescent
// table it read: nothing steps until the next sweep.
func (b *remotePS) sweep(m *measure) error {
	usage := b.kinds.draw() == 1
	b.out.Reset()
	trips0 := b.cl.Ops()
	ok := b.tr.begin(kOp)
	start := time.Now()
	err := sweep(b.cl, usage, &b.out)
	d := time.Since(start)
	b.tr.end(ok)
	m.ops++
	b.sweeps++
	if err != nil {
		m.fail("sweep %d: %v", b.sweeps, err)
		return nil
	}
	m.lat = append(m.lat, us(d))
	m.userBytes += float64(b.out.Len())
	m.rfsTrips += float64(b.cl.Ops() - trips0)
	defer func(start time.Time) { m.offClock += time.Since(start) }(time.Now())

	b.lock.Lock()
	defer b.lock.Unlock()
	var sn procfs.PrSnap
	if err := procfs.Snapshot(b.s.K, types.RootCred(), &sn); err != nil {
		return err
	}
	want := 0
	for _, rec := range sn.Procs {
		if !usage || rec.Info.State != 'Z' {
			want++
		}
	}
	if b.cfg.breakCheck {
		want++
	}
	if got := bytes.Count(b.out.Bytes(), []byte("\n")) - 1; got != want {
		m.fail("sweep %d listed %d processes, the table holds %d", b.sweeps, got, want)
	}
	if b.sweeps%16 == 1 {
		b.ref.Reset()
		if err := sweep(b.local, usage, &b.ref); err != nil {
			return err
		}
		if !bytes.Equal(b.out.Bytes(), b.ref.Bytes()) {
			m.fail("sweep %d: remote output differs from the local one", b.sweeps)
		}
	}
	if b.localRFS != nil {
		// The wire rung: the same sweep again over the mux and TCP and
		// then over rfs.LocalTransport, both untraced, on the same table.
		// The server takes its lock itself.
		b.lock.Unlock()
		b.tr.setOn(false)
		dt, errT := b.timedSweep(b.cl, usage)
		dl, errL := b.timedSweep(b.localRFS, usage)
		b.tr.setOn(true)
		b.lock.Lock()
		if errT != nil || errL != nil {
			m.fail("sweep %d wire rung: %v %v", b.sweeps, errT, errL)
		} else {
			m.wire = append(m.wire, us(dt)-us(dl))
		}
	}
	return nil
}

func (b *remotePS) timedSweep(cl tools.ProcClient, usage bool) (time.Duration, error) {
	b.ref.Reset()
	start := time.Now()
	err := sweep(cl, usage, &b.ref)
	return time.Since(start), err
}

func (b *remotePS) drain(m *measure) error {
	b.lock.Lock()
	defer b.lock.Unlock()
	for _, p := range b.forkers {
		if !p.Alive() {
			m.fail("forker pid %d exited with status %#x", p.Pid, p.ExitStatus)
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

func (b *remotePS) close() {
	if b.mt != nil {
		b.mt.Close()
		b.mt = nil
	}
	if b.ln != nil {
		b.ln.Close()
		b.served.Wait()
		b.ln = nil
	}
	if b.s != nil {
		b.s.Close()
		b.s = nil
	}
}
