package mem

import "sync"

// This file is the frame-exposure side of the address space's fast-path /
// slow-path split (the UVM-style division of labor): the vCPU keeps a small
// software TLB of page translations, and the address space exposes the
// physical side of a translation — a directly addressable page frame — plus
// the generation protocol that tells caches when any translation may have
// gone stale.
//
// The contract has two layers:
//
//   - AS.Gen() is bumped by every mapping-state change: Map, Unmap,
//     Mprotect, Brk, automatic stack growth, copy-on-write page
//     materialization, watchpoint changes, and anything else that could
//     change what PageFrame would return. A cached Frame is valid only
//     while Gen() is unchanged (and the AS pointer itself is unchanged —
//     exec replaces the whole space).
//
//   - Object-backed frames alias the backing object's own storage, which
//     can move or change underneath the mapping (a write to the mapped
//     file) without the address space hearing about it. Such frames carry
//     the object's revision counter; users must revalidate Obj.ObjRev()
//     == Rev before every use. Frames backed by private pages or by an
//     anonymous mapping's zero page have Obj == nil and need no
//     revalidation.
//
// Pages that are watched, shared, or private-but-unmaterialized with no
// stable backing bytes are never exposed: accesses to them must take the
// slow path so watchpoint (FLTWATCH), copy-on-write, and write-through
// semantics stay bit-for-bit identical to the unaccelerated interpreter.

// RevBytes is an optional Object extension for backing stores whose entire
// content lives in one in-memory byte slice. It lets the address space hand
// out direct page frames over the object's storage. ObjBytes returns the
// current slice and a revision counter; the slice may be aliased only while
// ObjRev still returns the same revision. Implementations must change the
// revision on every content or size change (in-place or reallocating), and
// a revision must never repeat for different contents — not even across a
// rewind to saved contents: the address space memoizes padded copies keyed
// by revision (tailPage), and that memo outlives translation generations.
//
// The bytes between the slice's length and its capacity must read zero.
// They are the zero padding of the page that straddles the object's end:
// when the capacity covers that whole page, PageFrame aliases it like any
// other page, so every mapping of the object shares one padded page (memfs
// keeps a page of such slack past every file's end). An object without
// enough slack gets a zero-padded copy per mapping instead (tailPage).
type RevBytes interface {
	Object
	// ObjBytes returns the current backing bytes and their revision.
	ObjBytes() ([]byte, uint64)
	// ObjRev returns the current revision; it must be cheap and callable
	// without heavyweight locking (it is consulted on every cached access).
	ObjRev() uint64
}

// Frame is a directly addressable page exposed to the vCPU fast path by
// PageFrame. Data is exactly one page long and aliases live storage: reads
// and writes through it are immediately visible to the slow path and vice
// versa — the cache holds translations, never data.
type Frame struct {
	Data     []byte   // one page of live storage
	Prot     Prot     // effective permissions of the mapping
	Writable bool     // stores may write Data directly (materialized private page)
	Obj      RevBytes // non-nil: revalidate ObjRev() == Rev before every use
	Rev      uint64
}

// PageFrame returns a cacheable frame for the page containing addr. ok ==
// false means accesses to the page must take the slow path: the page is
// unmapped (possibly pending automatic stack growth, which only the slow
// path performs), shared, watched, or private-unmaterialized without stable
// backing bytes. The frame is valid until Gen() changes; object-backed
// frames additionally require ObjRev() revalidation per use.
//
// PageFrame has no side effects on the address space beyond the padded-page
// memo (see tailPage): it never grows the stack, never materializes a page,
// and never counts a fault.
func (as *AS) PageFrame(addr uint32) (Frame, bool) {
	as.mu.Lock()
	defer as.mu.Unlock()
	pb := as.pageBase(addr)
	s := as.FindSeg(pb)
	if s == nil || s.Shared || as.pagesWatched(uint64(pb), uint64(pb)+1) {
		return Frame{}, false
	}
	if uint64(pb)+uint64(as.pagesize) > s.End() {
		// Defensive: mappings are page-granular, so a mapped page base
		// implies the whole page is mapped; never expose a short frame.
		return Frame{}, false
	}
	if pg, ok := s.priv[pb]; ok {
		// A materialized private page: the one case stores may hit
		// directly (no copy-on-write left to do, no write-through).
		return Frame{Data: pg, Prot: s.Prot, Writable: true}, true
	}
	if s.Obj == nil {
		// Private anonymous, never written: reads see zeros. The shared
		// zero page serves reads; the first store must take the slow path
		// to materialize (and count) the page.
		return Frame{Data: as.zero, Prot: s.Prot}, true
	}
	if rb, ok := s.Obj.(RevBytes); ok {
		data, rev := rb.ObjBytes()
		off := s.Off + int64(pb) - int64(s.Base)
		if off < 0 {
			return Frame{}, false
		}
		f := Frame{Prot: s.Prot, Obj: rb, Rev: rev}
		end := off + int64(as.pagesize)
		switch {
		case off >= int64(len(data)):
			// Wholly past the object: reads see zeros until it grows,
			// which moves the revision.
			f.Data = as.zero
		case end <= int64(cap(data)):
			// Inside the object, or straddling its end within the zeroed
			// slack the RevBytes contract guarantees: alias it.
			f.Data = data[off:end:end]
		default:
			// The page straddles the end of an object without the slack
			// to cover it: reads zero-fill beyond its size, so
			// alias-by-slice is impossible. Serve a zero-padded copy,
			// memoized per mapping until the revision moves.
			t := s.tail
			if t == nil || t.obj != rb || t.off != off || t.rev != rev {
				cp := make([]byte, as.pagesize)
				copy(cp, data[off:])
				t = &tailPage{obj: rb, off: off, rev: rev, data: cp}
				s.tail = t
			}
			f.Data = t.data
		}
		return f, true
	}
	return Frame{}, false
}

// tailPage memoizes the zero-padded copy of the page of a private object
// mapping that straddles the end of an object without zeroed slack to
// cover it (a ByteObject). The record is immutable and its
// data is only ever exposed read-only, so a forked child may share it. The
// key is the object, the page's object offset and the object revision: a
// RevBytes revision never repeats for different contents, so a matching key
// means matching bytes however many generations have passed. writeChunk
// drops the memo when it privatizes the page, so a copied-on-write page
// does not pin a dead copy.
type tailPage struct {
	obj  RevBytes
	off  int64
	rev  uint64
	data []byte
}

// zeroPages holds one read-only zero page per page size, shared by every
// address space; PageFrame never exposes it as Writable.
var zeroPages struct {
	mu sync.Mutex
	m  map[uint32][]byte
}

// zeroPage returns the shared zero page of the given size.
func zeroPage(size uint32) []byte {
	zeroPages.mu.Lock()
	defer zeroPages.mu.Unlock()
	pg, ok := zeroPages.m[size]
	if !ok {
		if zeroPages.m == nil {
			zeroPages.m = make(map[uint32][]byte)
		}
		pg = make([]byte, size)
		zeroPages.m[size] = pg
	}
	return pg
}

// frameCap bounds the frame free list: 32 frames of DefaultPageSize, 128 KiB.
const frameCap = 32

// freeFrames is the package's page-frame free list, shared by every address
// space like zeroPages. A private page's frame lives through one cycle:
// materialized (writeChunk, or a copy by Dup or copySegs), dropped onto its
// space's dropped list (brk shrink, Unmap, Release), moved here by Reclaim,
// and taken again by the next materialization. Reclaim runs only after the
// kernel's TLB shootdown barrier has returned, so no CPU can still translate
// through a frame on this list. Frames here have unspecified contents. Only
// DefaultPageSize frames are recycled; other page sizes allocate afresh.
//
// Lock order: an address space's mu, then freeFrames.mu, never the reverse.
var freeFrames struct {
	mu sync.Mutex
	n  int
	f  [frameCap][]byte
}

// takeFrame returns a page frame of the given size with unspecified
// contents: a recycled one when the free list has one, a fresh one
// otherwise. Callers must overwrite every byte before exposing it.
func takeFrame(size uint32) []byte {
	if size == DefaultPageSize {
		freeFrames.mu.Lock()
		if n := freeFrames.n; n > 0 {
			pg := freeFrames.f[n-1]
			freeFrames.f[n-1] = nil
			freeFrames.n = n - 1
			freeFrames.mu.Unlock()
			return pg
		}
		freeFrames.mu.Unlock()
	}
	return make([]byte, size)
}

// drop parks the frame of a private page the space no longer maps, for
// Reclaim to recycle once no CPU can translate through it. Frames beyond
// what the free list can hold, and frames of other page sizes, are left to
// the collector. The caller holds as.mu and has bumped, or is about to
// bump, the translation generation.
func (as *AS) drop(pg []byte) {
	if as.pagesize == DefaultPageSize && len(as.dropped) < frameCap {
		as.dropped = append(as.dropped, pg)
	}
}

// Reclaim moves the frames the space has dropped to the free list. The
// caller must guarantee that no CPU still translates through them: the
// kernel calls it at the end of its TLB shootdown barrier.
func (as *AS) Reclaim() {
	as.mu.Lock()
	defer as.mu.Unlock()
	if len(as.dropped) == 0 {
		return
	}
	freeFrames.mu.Lock()
	for i, pg := range as.dropped {
		if freeFrames.n < frameCap {
			freeFrames.f[freeFrames.n] = pg
			freeFrames.n++
		}
		as.dropped[i] = nil
	}
	freeFrames.mu.Unlock()
	as.dropped = as.dropped[:0]
}

// Release empties a dead space: every private page is dropped, the
// mappings and the stack and break designations are cleared, and the
// generation moves. A reader still holding the pointer (a /proc inspector,
// a zombie's LWP) then gets ErrNotMapped rather than recycled bytes of
// another process. The kernel calls it when Unref reports the space dead,
// and then shoots down and reclaims.
func (as *AS) Release() {
	as.mu.Lock()
	defer as.mu.Unlock()
	for _, s := range as.segs {
		for _, pg := range s.priv {
			as.drop(pg)
		}
	}
	as.segs, as.stack, as.brk = nil, nil, nil
	as.invalidate()
}

// Gen returns the address space's translation generation: it changes every
// time a cached page translation could have become stale. Caches must
// revalidate against it (and against the AS identity itself) before every
// use of a cached frame. The counter is atomic so a vCPU running on one
// host CPU observes a bump made by a mutator on another without taking the
// address-space lock — this is the cross-CPU TLB shootdown generation: a
// per-access load of Gen makes every remote invalidation visible before the
// next cached translation is used.
func (as *AS) Gen() uint64 { return as.gen.Load() }

// invalidate bumps the translation generation. Every mutation of mapping
// state — addresses, lengths, permissions, watchpoints, or which backing
// store a page resolves to — must pass through here.
func (as *AS) invalidate() { as.gen.Add(1) }
