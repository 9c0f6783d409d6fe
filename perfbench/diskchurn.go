package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro"
	"repro/internal/blockfs"
	"repro/internal/kernel"
	"repro/internal/types"
	"repro/internal/vfs"
)

// disk_churn: 4 churner processes on a blockfs mounted at /disk with a
// 128-slot (128 KiB) buffer cache. A round opens a file O_RDWR|O_CREAT|
// O_TRUNC (creat(2) opens write-only), writes it in 512-byte writes,
// fsyncs, seeks to 0, reads it back in 512-byte reads comparing every block
// with what was written, closes and unlinks it. Each churner's lifetime is
// ten rounds, every size in {2, 8, 32, 128, 192} KiB twice, in an order
// drawn for the lifetime from 8 seeded ones, so some rounds fit the cache
// and some overflow it. The churner exits 0 when every check passed and
// with the failing check's code otherwise, and the benchmark respawns it.
// An op is one round.

var churnSizesKiB = []int{2, 8, 32, 128, 192}

const (
	churnTrailer   = 0x5eed5eed
	churnDevBlocks = 8192
	churnCacheSlot = 128
)

// churnProg is one churner. Every written block carries round<<16|block in
// its first word and the trailer in its last, and every read-back block is
// checked for both; exit codes 11-17 name the check that failed.
func churnProg(file string, blocks []int, trailerWant uint32) string {
	var sizes []string
	for _, n := range blocks {
		sizes = append(sizes, fmt.Sprint(n))
	}
	return fmt.Sprintf(`
	movi r6, 0			; r6 = round
round:	la r2, sizes
	mov r3, r6
	shl r3, 2
	add r2, r3
	ld r4, [r2]			; r4 = blocks this round
	movi r0, SYS_open
	la r1, path
	movi r2, %d			; O_RDWR|O_CREAT|O_TRUNC
	syscall
	cmpi r0, 0
	jlt bad1
	mov r7, r0			; r7 = fd
	movi r5, 0			; r5 = block
wr:	la r2, wbuf
	mov r3, r6
	shl r3, 16
	or r3, r5
	st r3, [r2]			; tag the block
	movi r0, SYS_write
	mov r1, r7
	movi r3, 512
	syscall
	cmpi r0, 512
	jne bad2
	addi r5, 1
	cmp r5, r4
	jne wr
	movi r0, SYS_fsync
	mov r1, r7
	syscall
	cmpi r0, 0
	jne bad3
	movi r0, SYS_lseek
	mov r1, r7
	movi r2, 0
	movi r3, 0
	syscall
	cmpi r0, 0
	jne bad4
	movi r5, 0
rd:	movi r0, SYS_read
	mov r1, r7
	la r2, rbuf
	movi r3, 512
	syscall
	cmpi r0, 512
	jne bad5
	la r2, rbuf
	ld r3, [r2]
	mov r1, r6
	shl r1, 16
	or r1, r5
	cmp r3, r1			; the block's tag
	jne bad6
	ld r3, [r2+508]
	li r1, %d
	cmp r3, r1			; the trailer
	jne bad6
	addi r5, 1
	cmp r5, r4
	jne rd
	movi r0, SYS_close
	mov r1, r7
	syscall
	movi r0, SYS_unlink
	la r1, path
	syscall
	cmpi r0, 0
	jne bad7
	addi r6, 1
	cmpi r6, %d
	jne round
	movi r0, SYS_exit
	movi r1, 0
	syscall
bad1:	movi r1, 11
	jmp die
bad2:	movi r1, 12
	jmp die
bad3:	movi r1, 13
	jmp die
bad4:	movi r1, 14
	jmp die
bad5:	movi r1, 15
	jmp die
bad6:	movi r1, 16
	jmp die
bad7:	movi r1, 17
die:	movi r0, SYS_exit
	syscall
.data
.align 4
sizes:	.word %s
path:	.asciz "%s"
.align 4
wbuf:	.space 508
	.word %d
rbuf:	.space 512
`, vfs.ORead|vfs.OWrite|vfs.OCreat|vfs.OTrunc, trailerWant, len(blocks),
		strings.Join(sizes, ", "), file, churnTrailer)
}

// churnVariant is one installed churner program: a seeded order of the
// round sizes.
type churnVariant struct {
	bin    string
	blocks []int   // 512-byte blocks per round
	bounds []int64 // system calls made by the end of each round
}

type churner struct {
	variants   []churnVariant
	cur        *churnVariant // the running lifetime's program
	p          *kernel.Proc
	round      int
	roundStart time.Time
}

type diskChurn struct {
	cfg      config
	tr       *tracer
	s        *repro.System
	kc       *kernelCounters
	rng      *rand.Rand
	dev      blockfs.Dev
	fs       *blockfs.FS
	churners []*churner
}

// churnVariants is how many size orders each churner has. Every lifetime
// does the same work, so the churners stay in lockstep; drawing each
// lifetime's order afresh varies how their rounds overlap, where one fixed
// order per churner would repeat one seed-chosen overlap all run long.
const churnVariants = 8

func newDiskChurn(cfg config, tr *tracer) bench { return &diskChurn{cfg: cfg, tr: tr} }

func (b *diskChurn) setup() error {
	b.s = repro.NewSystem(repro.Options{NCPU: 1})
	b.rng = rand.New(rand.NewSource(b.cfg.seed))
	b.dev = blockfs.NewMemDev(churnDevBlocks)
	if b.tr != nil {
		b.dev = &wDev{tr: b.tr, d: b.dev}
	}
	if err := blockfs.Mkfs(b.dev, 0); err != nil {
		return err
	}
	fs, err := blockfs.Mount(b.dev, blockfs.MountOptions{CacheSlots: churnCacheSlot, Now: b.s.K.Now})
	if err != nil {
		return err
	}
	b.fs = fs
	var root vfs.Vnode = fs.Root()
	if b.tr != nil {
		if root, err = blockfsLayer(b.tr).wrapVnode(root); err != nil {
			return err
		}
	}
	if err := b.s.NS.Mount("/disk", root); err != nil {
		return err
	}
	b.s.FS.MkdirAll("/disk", 0o755)

	n, sizes := 4, churnSizesKiB
	if b.cfg.tiny {
		n, sizes = 2, sizes[:2]
	}
	trailer := uint32(churnTrailer)
	if b.cfg.breakCheck {
		trailer++
	}
	for i := 0; i < n; i++ {
		c := &churner{}
		for j := 0; j < churnVariants; j++ {
			v := churnVariant{bin: fmt.Sprintf("/bin/churn%d.%d", i, j)}
			for _, kib := range sizes {
				v.blocks = append(v.blocks, kib*2, kib*2)
			}
			b.rng.Shuffle(len(v.blocks), func(i, j int) { v.blocks[i], v.blocks[j] = v.blocks[j], v.blocks[i] })
			var sys int64
			for _, blocks := range v.blocks {
				// open, the writes, fsync, lseek, the reads, close, unlink
				sys += int64(2*blocks + 5)
				v.bounds = append(v.bounds, sys)
			}
			prog := churnProg(fmt.Sprintf("/disk/churn%d", i), v.blocks, trailer)
			if err := b.s.Install(v.bin, prog, 0o755, 0, 0); err != nil {
				return err
			}
			c.variants = append(c.variants, v)
		}
		if err := b.spawn(c); err != nil {
			return err
		}
		b.churners = append(b.churners, c)
	}
	if b.tr != nil {
		b.kc = newKernelCounters(b.s.K)
	}
	return nil
}

func (b *diskChurn) spawn(c *churner) error {
	v := &c.variants[b.rng.Intn(len(c.variants))]
	p, err := b.s.Spawn(v.bin, []string{v.bin[5:]}, types.RootCred())
	if err != nil {
		return err
	}
	c.cur, c.p, c.round, c.roundStart = v, p, 0, time.Now()
	return nil
}

// poll counts the rounds each churner has finished — a round ends with its
// unlink, so a churner's system-call count marks its progress — and checks
// and (when respawn is set) restarts the churners that exited.
func (b *diskChurn) poll(m *measure, respawn bool) error {
	now := time.Now()
	for _, c := range b.churners {
		if c.p == nil {
			continue
		}
		sys := c.p.Usage.Syscalls
		for c.round < len(c.cur.bounds) && sys >= c.cur.bounds[c.round] {
			bytes := float64(c.cur.blocks[c.round] * 512)
			m.ops++
			m.lat = append(m.lat, us(now.Sub(c.roundStart)))
			m.userBytes += 2 * bytes
			m.userWritten += bytes
			m.userRead += bytes
			c.round++
			c.roundStart = now
		}
		if c.p.Alive() {
			continue
		}
		if c.p.ExitStatus != 0 {
			m.fail("%s pid %d exited with status %#x in round %d", c.cur.bin, c.p.Pid, c.p.ExitStatus, c.round)
		}
		c.p = nil
		if respawn {
			if err := b.spawn(c); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *diskChurn) run(deadline time.Time, m *measure) error {
	var k0 kcount
	if b.kc != nil {
		k0 = b.kc.now()
	}
	for time.Now().Before(deadline) {
		ok := b.tr.begin(kStep)
		b.s.Step()
		b.tr.end(ok)
		if err := b.poll(m, true); err != nil {
			return err
		}
	}
	if b.kc != nil {
		m.kc.add(b.kc.now().sub(k0))
	}
	return nil
}

func (b *diskChurn) drain(m *measure) error {
	for passes := 0; ; passes++ {
		if err := b.poll(m, false); err != nil {
			return err
		}
		live := false
		for _, c := range b.churners {
			live = live || c.p != nil
		}
		if !live {
			break
		}
		if passes > 10_000_000 {
			return fmt.Errorf("churners did not finish")
		}
		b.s.Step()
	}
	ents, err := b.s.Client(types.RootCred()).ReadDir("/disk")
	if err != nil {
		return err
	}
	if len(ents) != 0 {
		m.fail("%d files left on /disk after the drain", len(ents))
	}
	if bad := b.fs.Fsck(); len(bad) != 0 {
		m.fail("fsck: %d violations, first %s", len(bad), bad[0])
	}
	if err := b.s.K.CheckInvariants(); err != nil {
		m.fail("invariants: %v", err)
	}
	return nil
}

func (b *diskChurn) close() {
	if b.fs != nil {
		b.fs.Sync()
		b.fs = nil
	}
	if b.dev != nil {
		b.dev.Close()
		b.dev = nil
	}
	if b.s != nil {
		b.s.Close()
		b.s = nil
	}
}
