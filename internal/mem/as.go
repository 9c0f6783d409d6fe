package mem

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// Prot is a mapping permission set.
type Prot uint8

// Mapping permissions.
const (
	ProtRead  Prot = 1 << iota // readable
	ProtWrite                  // writable
	ProtExec                   // executable
)

// ProtRW and ProtRX are common permission combinations.
const (
	ProtRW  = ProtRead | ProtWrite
	ProtRX  = ProtRead | ProtExec
	ProtRWX = ProtRead | ProtWrite | ProtExec
)

// String renders permissions in the style of the paper's Figure 2
// ("read/exec", "read/write").
func (p Prot) String() string {
	var parts []string
	if p&ProtRead != 0 {
		parts = append(parts, "read")
	}
	if p&ProtWrite != 0 {
		parts = append(parts, "write")
	}
	if p&ProtExec != 0 {
		parts = append(parts, "exec")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "/")
}

// SegKind labels a mapping for reporting purposes. The model itself treats
// all mappings uniformly; "stack" and "break" appear in the PIOCMAP interface
// despite the disclaimers because the system is prepared to grow them, and a
// process-control application can sometimes make use of this information.
type SegKind int

// Segment kinds.
const (
	KindOther SegKind = iota
	KindText
	KindData
	KindBSS
	KindBreak
	KindStack
	KindShlibText
	KindShlibData
)

var kindNames = [...]string{"", "text", "data", "bss", "break", "stack", "shlib text", "shlib data"}

// String returns a human-readable label for the kind ("" for KindOther).
func (k SegKind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return ""
}

// AccessError describes a machine fault raised by an address-space access.
type AccessError struct {
	Addr  uint32 // faulting virtual address
	Fault int    // types.FLTBOUNDS, types.FLTACCESS, or types.FLTWATCH
}

// Error implements error.
func (e *AccessError) Error() string {
	return fmt.Sprintf("mem: %s at address %#x", types.FltName(e.Fault), e.Addr)
}

// Seg is one memory mapping: a contiguous virtual address range with
// permissions, a backing object (nil for private anonymous memory), and —
// for private mappings — the pages that have been privatized by
// copy-on-write.
type Seg struct {
	Base    uint32 // starting virtual address (page aligned)
	Len     uint32 // length in bytes (page multiple)
	Prot    Prot   // current permissions
	MaxProt Prot   // maximum permissions mprotect may restore
	Shared  bool   // MAP_SHARED: stores go through to the object
	Obj     Object // backing object; nil means private anonymous zero-fill
	Off     int64  // object offset corresponding to Base
	Kind    SegKind

	priv map[uint32][]byte // page base -> private page (copy-on-write state)
	tail *tailPage         // memoized padded page straddling Obj's end (frame.go)
}

// End returns the first address past the mapping.
func (s *Seg) End() uint64 { return uint64(s.Base) + uint64(s.Len) }

// Contains reports whether addr falls inside the mapping.
func (s *Seg) Contains(addr uint32) bool {
	return addr >= s.Base && uint64(addr) < s.End()
}

// ObjName returns the backing object name, or "[anon]".
func (s *Seg) ObjName() string {
	if s.Obj == nil {
		return "[anon]"
	}
	return s.Obj.ObjName()
}

// Stats counts page-level events in an address space. Minor faults are
// zero-fill materializations; COW faults are copy-on-write page copies. The
// PIOCUSAGE resource-usage extension reports these.
type Stats struct {
	MinorFaults  int64 // zero-fill page materializations
	COWFaults    int64 // copy-on-write page copies
	WatchRecover int64 // same-page references to unwatched data recovered transparently
	GrowStack    int64 // automatic stack extensions
}

// AS is a process address space: an ordered set of non-overlapping mappings
// plus the watchpoint list and page-event statistics.
//
// Locking: mu is the per-address-space lock. Every exported mutator (Map,
// Unmap, Mprotect, Brk, Dup, Release, Reclaim, the watchpoint setters) and
// every exported multi-step access path (CheckAccess, ReadAt, WriteAt,
// AccessRead, AccessFetch, AccessWrite, PageFrame) takes it; unexported
// helpers assume it is held. This is what lets an SMP kernel run one
// process's user code (whose vCPU slow path lands here) concurrently with
// another CPU mutating the same space through a /proc write or a vfork
// sibling's brk — without a global memory lock. The TLB fast path never
// takes mu: it revalidates each cached frame against the atomic generation
// (Gen) and the backing object's revision instead. Read-only reporting views
// (Segs, SegsView, FindSeg, VirtSize, MapString, Watches) stay lock-free;
// they are only called from contexts already serialized against mutation of
// that space (the owning process's own syscalls, or a kernel that has
// quiesced the target).
type AS struct {
	mu       sync.Mutex
	pagesize uint32
	segs     []*Seg // sorted by Base
	stack    *Seg   // the mapping grown automatically (initial program stack)
	brk      *Seg   // the mapping grown by brk(2)
	stackLim uint32 // lowest address the stack may grow to
	watches  []Watch
	watchPgs map[uint32]bool // pages containing any watched byte
	Stats    Stats
	refs     int // vfork sharing count
	owner    int // pid charged for fault-injection hits (0: unattributed)

	gen     atomic.Uint64 // translation generation (see frame.go)
	zero    []byte        // the package's read-only zero page of this page size
	dropped [][]byte      // frames of unmapped private pages awaiting Reclaim
}

// DefaultPageSize is the page size used unless overridden; "a small multiple
// of 1024 bytes" per the paper.
const DefaultPageSize = 4096

// NewAS returns an empty address space with the given page size
// (DefaultPageSize if pagesize <= 0).
func NewAS(pagesize int) *AS {
	if pagesize <= 0 {
		pagesize = DefaultPageSize
	}
	return &AS{pagesize: uint32(pagesize), watchPgs: make(map[uint32]bool), refs: 1,
		zero: zeroPage(uint32(pagesize))}
}

// PageSize returns the address space's page size.
func (as *AS) PageSize() uint32 { return as.pagesize }

// SetOwner attributes the address space to pid for fault injection. A vfork
// child shares the parent's space and therefore the parent's attribution.
func (as *AS) SetOwner(pid int) { as.owner = pid }

// Owner returns the pid the address space is attributed to (0 if none).
func (as *AS) Owner() int { return as.owner }

// pageBase rounds addr down to a page boundary.
func (as *AS) pageBase(addr uint32) uint32 { return addr &^ (as.pagesize - 1) }

// roundUp rounds n up to a page multiple, using 64-bit arithmetic.
func (as *AS) roundUp(n uint64) uint64 {
	ps := uint64(as.pagesize)
	return (n + ps - 1) &^ (ps - 1)
}

// NSegs returns the number of mappings (PIOCNMAP).
func (as *AS) NSegs() int { return len(as.segs) }

// Segs returns the mappings in address order. The slice is fresh but the
// *Seg values are live; callers must not mutate them.
func (as *AS) Segs() []*Seg { return append([]*Seg(nil), as.segs...) }

// SegsView returns the live mapping slice in address order without copying.
// Callers must not mutate the slice or the mappings, and the view is only
// valid until the next operation that changes the address space — it is
// meant for read-and-encode paths (/proc map and status readers) that walk
// the mappings once and drop the slice. Gen() identifies the validity
// window: a view taken at one generation must not be used at another.
func (as *AS) SegsView() []*Seg { return as.segs }

// VirtSize returns the total virtual memory size in bytes — the "size"
// reported for the process's /proc file in Figure 1. It takes the
// address-space lock: inspectors read it while the owning process may be
// extending a mapping from a fault path on another CPU.
func (as *AS) VirtSize() int64 {
	as.mu.Lock()
	defer as.mu.Unlock()
	var n int64
	for _, s := range as.segs {
		n += int64(s.Len)
	}
	return n
}

// StatsSnap returns a copy of the page-event statistics taken under the
// address-space lock, for inspectors that may run concurrently with the
// owning process's fault paths (which bump these counters under the same
// lock).
func (as *AS) StatsSnap() Stats {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.Stats
}

// FindSeg returns the mapping containing addr, or nil.
func (as *AS) FindSeg(addr uint32) *Seg {
	i := sort.Search(len(as.segs), func(i int) bool {
		return as.segs[i].End() > uint64(addr)
	})
	if i < len(as.segs) && as.segs[i].Contains(addr) {
		return as.segs[i]
	}
	return nil
}

// MapArgs describes a mapping request.
type MapArgs struct {
	Base    uint32 // requested base (page aligned); with Fixed it is mandatory
	Len     uint32 // length in bytes (rounded up to pages)
	Prot    Prot
	MaxProt Prot // defaults to Prot|ProtRead|ProtWrite if zero
	Shared  bool
	Obj     Object
	Off     int64
	Kind    SegKind
	Fixed   bool // fail rather than relocate if Base unavailable
}

// Map establishes a new mapping and returns its base address. Without Fixed,
// Base is a hint and the first free range at or above it is used.
func (as *AS) Map(a MapArgs) (*Seg, error) {
	if a.Len == 0 {
		return nil, fmt.Errorf("mem: zero-length mapping")
	}
	if siteFaultMap.Hit(as.owner) {
		return nil, ErrNoMem
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	length := as.roundUp(uint64(a.Len))
	if length > 1<<32 {
		return nil, fmt.Errorf("mem: mapping too large")
	}
	base := as.pageBase(a.Base)
	if a.Fixed {
		if base != a.Base {
			return nil, fmt.Errorf("mem: fixed mapping at unaligned address %#x", a.Base)
		}
		if uint64(base)+length > 1<<32 {
			return nil, fmt.Errorf("mem: fixed mapping past end of address space")
		}
		if as.overlaps(base, length) {
			return nil, fmt.Errorf("mem: mapping overlap at %#x", base)
		}
	} else {
		b, ok := as.findFree(base, length)
		if !ok {
			return nil, fmt.Errorf("mem: address space exhausted")
		}
		base = b
	}
	maxp := a.MaxProt
	if maxp == 0 {
		maxp = a.Prot | ProtRead | ProtWrite
	}
	seg := &Seg{
		Base: base, Len: uint32(length), Prot: a.Prot, MaxProt: maxp,
		Shared: a.Shared, Obj: a.Obj, Off: a.Off, Kind: a.Kind,
		priv: make(map[uint32][]byte),
	}
	as.insert(seg)
	as.invalidate()
	return seg, nil
}

func (as *AS) overlaps(base uint32, length uint64) bool {
	end := uint64(base) + length
	for _, s := range as.segs {
		if uint64(s.Base) < end && s.End() > uint64(base) {
			return true
		}
	}
	return false
}

func (as *AS) findFree(hint uint32, length uint64) (uint32, bool) {
	base := uint64(as.pageBase(hint))
	for {
		if base+length > 1<<32 {
			return 0, false
		}
		conflict := false
		for _, s := range as.segs {
			if uint64(s.Base) < base+length && s.End() > base {
				base = as.roundUp(s.End())
				conflict = true
				break
			}
		}
		if !conflict {
			return uint32(base), true
		}
	}
}

func (as *AS) insert(seg *Seg) {
	i := sort.Search(len(as.segs), func(i int) bool {
		return as.segs[i].Base >= seg.Base
	})
	as.segs = append(as.segs, nil)
	copy(as.segs[i+1:], as.segs[i:])
	as.segs[i] = seg
}

// Unmap removes the mappings covering [base, base+len), splitting mappings
// that straddle the boundary.
func (as *AS) Unmap(base, length uint32) error {
	if length == 0 {
		return nil
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	lo := uint64(as.pageBase(base))
	hi := as.roundUp(uint64(base) + uint64(length))
	var out []*Seg
	for _, s := range as.segs {
		sLo, sHi := uint64(s.Base), s.End()
		if sHi <= lo || sLo >= hi {
			out = append(out, s)
			continue
		}
		if sLo < lo {
			out = append(out, s.slice(sLo, lo, as.pagesize))
		}
		if sHi > hi {
			out = append(out, s.slice(hi, sHi, as.pagesize))
		}
		for pb, pg := range s.priv {
			if uint64(pb) >= lo && uint64(pb) < hi {
				as.drop(pg)
			}
		}
		if as.stack == s {
			as.stack = nil
		}
		if as.brk == s {
			as.brk = nil
		}
	}
	as.segs = out
	sort.Slice(as.segs, func(i, j int) bool { return as.segs[i].Base < as.segs[j].Base })
	as.invalidate()
	return nil
}

// slice returns the portion of s covering [lo, hi), keeping the private
// pages that fall inside.
func (s *Seg) slice(lo, hi uint64, pagesize uint32) *Seg {
	ns := &Seg{
		Base: uint32(lo), Len: uint32(hi - lo), Prot: s.Prot, MaxProt: s.MaxProt,
		Shared: s.Shared, Obj: s.Obj, Off: s.Off + int64(lo) - int64(s.Base),
		Kind: s.Kind, priv: make(map[uint32][]byte),
	}
	for pb, pg := range s.priv {
		if uint64(pb) >= lo && uint64(pb) < hi {
			ns.priv[pb] = pg
		}
	}
	return ns
}

// Mprotect changes the permissions of [base, base+len). The range must be
// entirely mapped, and the new permissions must not exceed any covered
// mapping's MaxProt. Mappings straddling the boundary are split.
func (as *AS) Mprotect(base, length uint32, prot Prot) error {
	if length == 0 {
		return nil
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	lo := uint64(as.pageBase(base))
	hi := as.roundUp(uint64(base) + uint64(length))
	// Verify full coverage and MaxProt first so the operation is atomic.
	for at := lo; at < hi; {
		s := as.FindSeg(uint32(at))
		if s == nil {
			return &AccessError{Addr: uint32(at), Fault: types.FLTBOUNDS}
		}
		if prot&^s.MaxProt != 0 {
			return &AccessError{Addr: uint32(at), Fault: types.FLTACCESS}
		}
		at = s.End()
	}
	var out []*Seg
	for _, s := range as.segs {
		sLo, sHi := uint64(s.Base), s.End()
		if sHi <= lo || sLo >= hi {
			out = append(out, s)
			continue
		}
		if sLo < lo {
			out = append(out, s.slice(sLo, lo, as.pagesize))
		}
		mid := s.slice(max64(sLo, lo), min64(sHi, hi), as.pagesize)
		mid.Prot = prot
		out = append(out, mid)
		if sHi > hi {
			out = append(out, s.slice(hi, sHi, as.pagesize))
		}
		if as.stack == s {
			as.stack = mid
		}
		if as.brk == s {
			as.brk = mid
		}
	}
	as.segs = out
	sort.Slice(as.segs, func(i, j int) bool { return as.segs[i].Base < as.segs[j].Base })
	as.invalidate()
	return nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// SetStack designates seg as the automatically-grown program stack; the
// stack may grow down to limit.
func (as *AS) SetStack(seg *Seg, limit uint32) {
	as.stack = seg
	as.stackLim = limit
}

// SetBrk designates seg as the break mapping grown by brk(2).
func (as *AS) SetBrk(seg *Seg) { as.brk = seg }

// StackSeg returns the stack mapping, if designated.
func (as *AS) StackSeg() *Seg { return as.stack }

// BrkSeg returns the break mapping, if designated.
func (as *AS) BrkSeg() *Seg { return as.brk }

// Brk grows or shrinks the break mapping so that it ends at newEnd.
// It implements the brk(2) system call's effect on the address space.
func (as *AS) Brk(newEnd uint32) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	s := as.brk
	if s == nil {
		return fmt.Errorf("mem: no break mapping")
	}
	if newEnd < s.Base {
		return fmt.Errorf("mem: brk below break base")
	}
	newLen := as.roundUp(uint64(newEnd) - uint64(s.Base))
	if newLen == uint64(s.Len) {
		return nil
	}
	if newLen > uint64(s.Len) {
		if siteFaultBrk.Hit(as.owner) {
			return ErrNoMem
		}
		// Check the growth region is free.
		if as.overlaps(uint32(s.End()), newLen-uint64(s.Len)) {
			return fmt.Errorf("mem: brk collides with another mapping")
		}
		s.Len = uint32(newLen)
		as.invalidate()
		return nil
	}
	// Shrink: drop private pages past the new end.
	for pb, pg := range s.priv {
		if uint64(pb) >= uint64(s.Base)+newLen {
			as.drop(pg)
			delete(s.priv, pb)
		}
	}
	s.Len = uint32(newLen)
	as.invalidate()
	return nil
}

// tryGrowStack extends the stack mapping downward to cover addr, if addr is
// in the growth region. It reports whether growth occurred.
func (as *AS) tryGrowStack(addr uint32) bool {
	s := as.stack
	if s == nil || addr >= s.Base || addr < as.stackLim {
		return false
	}
	// An injected failure here means the kernel "could not find a frame for
	// the new stack page": the access falls through to the ordinary bounds
	// fault and the process takes SIGSEGV, exactly as on a real system whose
	// stack could not be extended.
	if siteFaultStack.Hit(as.owner) {
		return false
	}
	newBase := as.pageBase(addr)
	grow := s.Base - newBase
	if as.overlaps(newBase, uint64(grow)) {
		return false
	}
	s.Off -= int64(grow)
	s.Base = newBase
	s.Len += grow
	as.Stats.GrowStack++
	sort.Slice(as.segs, func(i, j int) bool { return as.segs[i].Base < as.segs[j].Base })
	as.invalidate()
	return true
}

// Dup returns a copy of the address space for fork(2): mappings are copied,
// shared mappings alias the same objects, and private pages are duplicated.
func (as *AS) Dup() *AS {
	as.mu.Lock()
	defer as.mu.Unlock()
	n := NewAS(int(as.pagesize))
	n.stackLim = as.stackLim
	n.adopt(copySegs(as.segs, as.stack, as.brk))
	for i, s := range as.segs {
		n.segs[i].tail = s.tail // immutable and never exposed writable
	}
	// Watchpoints are per-address-space state and do not survive fork.
	return n
}

// Ref increments the sharing count (vfork).
func (as *AS) Ref() { as.refs++ }

// Unref decrements the sharing count and reports whether the space is dead;
// the caller then Releases it.
func (as *AS) Unref() bool { as.refs--; return as.refs <= 0 }

// MapString renders the address space in the style of the paper's Figure 2.
func (as *AS) MapString() string {
	var b strings.Builder
	for _, s := range as.segs {
		kb := (int64(s.Len) + 1023) / 1024
		fmt.Fprintf(&b, "%08X %6dK %-10s", s.Base, kb, s.Prot)
		if s.Kind != KindOther {
			fmt.Fprintf(&b, " [%s]", s.Kind)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
