package vcpu

import (
	"math/bits"
	"sync"

	"repro/internal/mem"
)

// The software TLB: a small direct-mapped per-CPU cache of page
// translations, the fast half of the fast-path/slow-path split. A hit
// resolves a load, store, or instruction fetch to a direct frame access —
// one index, one tag compare, one permission check — with no segment walk,
// no staging buffer, and no allocation. Everything with interesting
// semantics (watchpoints, copy-on-write, stack growth, write-through,
// permission faults) is deliberately a miss, so the slow path keeps those
// behaviors bit-for-bit identical to the unaccelerated interpreter.
//
// Validity is the one key of mem/frame.go: the TLB is keyed with the
// address space pointer, its Gen() and mem.Epoch(), read before any fill,
// and the whole TLB is dropped the moment any of them changes. Exec
// replaces the AS pointer. Every mapping mutation (map/unmap/mprotect/brk/
// stack growth/COW materialization/watchpoint change) bumps the
// generation, whether it came from the process itself, a /proc as-file
// write, or ptrace POKE. A content change to a mapped object (a write to a
// mapped file, a truncate, a checkpoint restore) bumps the epoch, so
// frames aliasing the object's storage are never served stale. A hit
// compares the key and nothing else. Dropping costs O(occupied slots): an
// occupancy mask records which slots were filled since the last reset, and
// only those are cleared — the generation moves on every brk and every
// fresh-page store, often with only a few slots in use.
//
// In front of the entries sits the fetch window: the translation of the
// text page that served the last instruction fetch, so straight-line code
// and loops skip the index, the tag compare and the permission check. It
// is part of the TLB and shares its key: Step serves a PC inside the
// window only under the key a TLB hit needs, and a reset or FlushTLB drops
// it with the entries. Like them it caches a translation, never data: the
// frame aliases live storage, so a store or an as-file write to an already
// private text page is fetched at once. A fetch outside the window falls
// through to the entries (fetch32), whose exec hit refills it; NoTLB never
// fills it.

// The entry array is most of an LWP's size, and most LWPs of a large table
// are asleep, so a TLB holds one only while its LWP can run (ReleaseTLB,
// freeEnts). The key and the window fields stay inline. An LWP that spins
// or is stopped keeps its array, so a stopped debugger target resumes with
// a warm TLB.

const (
	tlbBits = 6
	tlbSize = 1 << tlbBits
	// tlbNoTag is an address that is never a page base (page bases are
	// page-aligned); empty entries carry it so they can never hit.
	tlbNoTag = ^uint32(0)
)

// The occupancy mask has one bit per slot.
var _ [64 - tlbSize]struct{}

// tlbEntry caches one page translation.
type tlbEntry struct {
	tag      uint32   // page base address, or tlbNoTag
	prot     mem.Prot // effective permissions of the mapping
	writable bool     // stores may write the frame directly
	frame    []byte   // one page of live storage
}

// tlbEnts is one entry array. Every array outside a TLB is empty: every
// tag is tlbNoTag and no entry holds a frame.
type tlbEnts [tlbSize]tlbEntry

// tlb is the per-CPU translation cache.
type tlb struct {
	as    *mem.AS  // address space the entries describe
	gen   uint64   // its Gen() when they were filled
	epoch uint64   // mem.Epoch() when they were filled
	shift uint32   // page shift
	mask  uint32   // page size - 1
	used  uint64   // bit i set: ents[i] filled since the last reset
	ents  *tlbEnts // nil until the first fill and after ReleaseTLB
	win   fetchWin // translation of the last fetched text page
}

// fetchWin is the fetch window: one exec-permitted page translation, as
// the entry it was filled from held it, valid under the TLB's key. An
// empty window has no frame, so no PC lies inside it.
type fetchWin struct {
	base  uint32 // page base address
	frame []byte // one page of live storage
}

// entsCap bounds the free list of entry arrays: eight arrays, about 30 KB.
// A sleeping LWP's array goes back here and its next fill takes one, so a
// fork-and-wait loop recycles arrays instead of allocating them; an array
// released into a full list is left to the garbage collector.
const entsCap = 8

// freeEnts is the package's free list of empty entry arrays, shared by
// every CPU.
var freeEnts struct {
	mu   sync.Mutex
	list []*tlbEnts
}

// takeEnts returns an empty entry array, recycled when one is free.
func takeEnts() *tlbEnts {
	freeEnts.mu.Lock()
	if n := len(freeEnts.list); n > 0 {
		e := freeEnts.list[n-1]
		freeEnts.list[n-1] = nil
		freeEnts.list = freeEnts.list[:n-1]
		freeEnts.mu.Unlock()
		return e
	}
	freeEnts.mu.Unlock()
	e := new(tlbEnts)
	for i := range e {
		e[i].tag = tlbNoTag
	}
	return e
}

// putEnts offers an emptied entry array to the free list.
func putEnts(e *tlbEnts) {
	freeEnts.mu.Lock()
	if len(freeEnts.list) < entsCap {
		freeEnts.list = append(freeEnts.list, e)
	}
	freeEnts.mu.Unlock()
}

// clearUsed empties the occupied slots.
func (t *tlb) clearUsed() {
	for m := t.used; m != 0; m &= m - 1 {
		t.ents[bits.TrailingZeros64(m)] = tlbEntry{tag: tlbNoTag}
	}
	t.used = 0
}

// current reports whether the TLB is keyed to as under its current
// generation and the current epoch.
func (t *tlb) current(as *mem.AS) bool {
	return t.as == as && t.gen == as.Gen() && t.epoch == mem.Epoch()
}

// reset re-keys the TLB to the address space's current generation and the
// current epoch, and drops every entry and the fetch window. Called
// whenever any part of the key moves. Slots outside the occupancy mask are
// already empty.
func (t *tlb) reset(as *mem.AS) {
	t.as = as
	t.gen = as.Gen()
	t.epoch = mem.Epoch()
	ps := as.PageSize()
	t.mask = ps - 1
	t.shift = uint32(bits.TrailingZeros32(ps))
	t.clearUsed()
	t.win = fetchWin{}
}

// ReleaseTLB empties the entry array and gives it back, and drops the
// fetch window; the key stays. The kernel calls it on the LWP's own CPU
// when the LWP sleeps or exits. The next fill takes an array again.
func (c *CPU) ReleaseTLB() {
	t := &c.tlb
	t.win = fetchWin{}
	if t.ents == nil {
		return
	}
	t.clearUsed()
	putEnts(t.ents)
	t.ents = nil
}

// FlushTLB drops every cached translation and un-keys the TLB; the next
// access re-keys it against the current address space. Checkpoint restore
// calls it: cached frames may describe an address space the restore just
// discarded, and the key is not trusted across a rewind.
func (c *CPU) FlushTLB() {
	c.ReleaseTLB()
	c.tlb = tlb{}
}

// fillWindow copies the entry that just served an exec access at pc into
// the fetch window.
func (t *tlb) fillWindow(pc uint32) {
	e := &t.ents[(pc>>t.shift)&(tlbSize-1)]
	t.win = fetchWin{base: e.tag, frame: e.frame}
}

// tlbFrame returns the direct frame for an access needing permissions want
// at addr, or nil when the access must take the slow path. write
// additionally requires a writable (materialized private) frame. On a miss
// it attempts one fill via AS.PageFrame; pages the address space refuses to
// expose (watched, shared, COW-unresolved without stable backing) simply
// never enter the cache.
func (c *CPU) tlbFrame(addr uint32, want mem.Prot, write bool) []byte {
	if c.NoTLB || c.AS == nil {
		return nil
	}
	t := &c.tlb
	if !t.current(c.AS) {
		t.reset(c.AS)
	}
	if t.ents == nil {
		t.ents = takeEnts()
	}
	i := (addr >> t.shift) & (tlbSize - 1)
	e := &t.ents[i]
	tag := addr &^ t.mask
	if e.tag == tag {
		if e.prot&want == want && (!write || e.writable) {
			return e.frame
		}
		// The translation is valid but this access needs the slow path:
		// a permission fault, or a store that must do copy-on-write
		// first. Keep the entry.
		return nil
	}
	f, ok := c.AS.PageFrame(tag)
	t.used |= 1 << i
	if !ok {
		// Negatively cache the refusal: accesses to a watched, shared or
		// otherwise uncacheable page go straight to the slow path without
		// re-asking PageFrame, until the next generation bump (or a
		// conflicting fill) drops the entry. prot == 0 can satisfy no
		// access, so the entry can never serve a hit.
		*e = tlbEntry{tag: tag}
		return nil
	}
	e.tag, e.prot, e.writable, e.frame = tag, f.Prot, f.Writable, f.Data
	if f.Prot&want != want || (write && !f.Writable) {
		return nil
	}
	return e.frame
}
