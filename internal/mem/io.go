package mem

import (
	"errors"

	"repro/internal/types"
)

// ErrNotMapped is returned by ReadAt/WriteAt when the starting offset lies in
// an unmapped area: "I/O operations with a file offset in an unmapped area
// fail". Operations that merely extend into unmapped areas do not fail but
// are truncated at the boundary.
var ErrNotMapped = errors.New("mem: address not mapped")

// CheckAccess validates a CPU access of n bytes at addr needing permissions
// want. It grows the stack automatically when the reference falls in the
// stack growth region, and raises FLTWATCH when the access overlaps a traced
// watchpoint. References to unwatched data that happen to fall in the same
// page as watched data are recovered transparently (and counted).
func (as *AS) CheckAccess(addr uint32, n int, want Prot) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.checkAccess(addr, n, want)
}

// checkAccess is CheckAccess with the address-space lock held.
func (as *AS) checkAccess(addr uint32, n int, want Prot) error {
	if n <= 0 {
		return nil
	}
	end := uint64(addr) + uint64(n)
	if end > 1<<32 {
		return &AccessError{Addr: addr, Fault: types.FLTBOUNDS}
	}
	for at := uint64(addr); at < end; {
		s := as.FindSeg(uint32(at))
		if s == nil {
			if as.tryGrowStack(uint32(at)) {
				continue
			}
			return &AccessError{Addr: uint32(at), Fault: types.FLTBOUNDS}
		}
		if want&^s.Prot != 0 {
			return &AccessError{Addr: uint32(at), Fault: types.FLTACCESS}
		}
		at = min64(end, s.End())
	}
	if want&(ProtRead|ProtWrite) != 0 {
		if err := as.checkWatch(addr, n, want); err != nil {
			return err
		}
	}
	return nil
}

// ReadAt implements the /proc read semantics on the address space: data may
// be transferred from any valid locations; a starting offset in an unmapped
// area fails; reads extending into unmapped areas are truncated at the
// boundary. Reads are permitted regardless of mapping permissions (the
// controlling process may inspect read-protected memory).
func (as *AS) ReadAt(p []byte, off int64) (int, error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.readAt(p, off)
}

// readAt is ReadAt with the address-space lock held.
func (as *AS) readAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if off < 0 || off >= 1<<32 {
		return 0, ErrNotMapped
	}
	n := 0
	for n < len(p) {
		at := uint64(off) + uint64(n)
		if at >= 1<<32 {
			break
		}
		s := as.FindSeg(uint32(at))
		if s == nil {
			break
		}
		chunk := int(min64(min64(s.End(), at+uint64(len(p)-n)), as.pageEnd(at)) - at)
		as.readChunk(s, uint32(at), p[n:n+chunk])
		n += chunk
	}
	if n == 0 {
		return 0, ErrNotMapped
	}
	return n, nil
}

// WriteAt implements the /proc write semantics: writes to private mappings
// are satisfied by copy-on-write (writing to one process will not corrupt
// another process executing the same executable file or shared library);
// writes to shared mappings go through to the mapped object. A starting
// offset in an unmapped area fails; writes extending into unmapped areas are
// truncated at the boundary. This includes writes as well as reads.
//
// Permissions are not checked here: the CPU store path checks them with
// CheckAccess first, while the /proc path deliberately bypasses them so a
// controlling process can plant breakpoints in read/exec text.
func (as *AS) WriteAt(p []byte, off int64) (int, error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.writeAt(p, off)
}

// writeAt is WriteAt with the address-space lock held.
func (as *AS) writeAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if off < 0 || off >= 1<<32 {
		return 0, ErrNotMapped
	}
	n := 0
	for n < len(p) {
		at := uint64(off) + uint64(n)
		if at >= 1<<32 {
			break
		}
		s := as.FindSeg(uint32(at))
		if s == nil {
			break
		}
		chunk := int(min64(min64(s.End(), at+uint64(len(p)-n)), as.pageEnd(at)) - at)
		if err := as.writeChunk(s, uint32(at), p[n:n+chunk]); err != nil {
			if n == 0 {
				return 0, err
			}
			break
		}
		n += chunk
	}
	if n == 0 {
		return 0, ErrNotMapped
	}
	return n, nil
}

// accessSeg locates the mapping for a CPU access of n bytes at addr that
// does not cross a page boundary, applying the full access semantics in one
// segment walk: automatic stack growth, the permission check, and the
// watchpoint check. Mappings are page-granular, so an access within one
// page lies within one mapping.
func (as *AS) accessSeg(addr uint32, n int, want Prot) (*Seg, error) {
	for {
		s := as.FindSeg(addr)
		if s == nil {
			if as.tryGrowStack(addr) {
				continue
			}
			return nil, &AccessError{Addr: addr, Fault: types.FLTBOUNDS}
		}
		if want&^s.Prot != 0 {
			return nil, &AccessError{Addr: addr, Fault: types.FLTACCESS}
		}
		if want&(ProtRead|ProtWrite) != 0 {
			if err := as.checkWatch(addr, n, want); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
}

// crossesPage reports whether [addr, addr+n) spans a page boundary.
func (as *AS) crossesPage(addr uint32, n int) bool {
	return (addr^(addr+uint32(n)-1))&^(as.pagesize-1) != 0
}

// AccessRead performs a CPU load: the permission check, watchpoint check,
// automatic stack growth and the data copy of CheckAccess+ReadAt in a
// single segment walk. It is the vCPU's slow path; the TLB hit path skips
// even this.
func (as *AS) AccessRead(addr uint32, p []byte) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.accessCopy(addr, p, ProtRead)
}

// AccessFetch is AccessRead with execute permission: an instruction fetch.
// Like CheckAccess with ProtExec, it does not trigger watchpoints.
func (as *AS) AccessFetch(addr uint32, p []byte) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.accessCopy(addr, p, ProtExec)
}

func (as *AS) accessCopy(addr uint32, p []byte, want Prot) error {
	n := len(p)
	if n == 0 {
		return nil
	}
	if uint64(addr)+uint64(n) > 1<<32 {
		return &AccessError{Addr: addr, Fault: types.FLTBOUNDS}
	}
	if as.crossesPage(addr, n) {
		// Page-crossing accesses take the general two-pass path.
		if err := as.checkAccess(addr, n, want); err != nil {
			return err
		}
		_, err := as.readAt(p, int64(addr))
		return err
	}
	s, err := as.accessSeg(addr, n, want)
	if err != nil {
		return err
	}
	as.readChunk(s, addr, p)
	return nil
}

// AccessWrite performs a CPU store: CheckAccess+WriteAt folded into a
// single segment walk, including copy-on-write materialization.
func (as *AS) AccessWrite(addr uint32, p []byte) error {
	n := len(p)
	if n == 0 {
		return nil
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	if uint64(addr)+uint64(n) > 1<<32 {
		return &AccessError{Addr: addr, Fault: types.FLTBOUNDS}
	}
	if as.crossesPage(addr, n) {
		if err := as.checkAccess(addr, n, ProtWrite); err != nil {
			return err
		}
		_, err := as.writeAt(p, int64(addr))
		return err
	}
	s, err := as.accessSeg(addr, n, ProtWrite)
	if err != nil {
		return err
	}
	return as.writeChunk(s, addr, p)
}

// pageEnd returns the address of the end of the page containing at.
func (as *AS) pageEnd(at uint64) uint64 {
	return (at &^ uint64(as.pagesize-1)) + uint64(as.pagesize)
}

// readChunk copies out data within a single mapping and a single page.
func (as *AS) readChunk(s *Seg, addr uint32, p []byte) {
	pb := as.pageBase(addr)
	if !s.Shared {
		if pg, ok := s.priv[pb]; ok {
			copy(p, pg[addr-pb:])
			return
		}
	}
	if s.Obj != nil {
		s.Obj.ReadObj(p, s.Off+int64(addr)-int64(s.Base))
		return
	}
	for i := range p {
		p[i] = 0
	}
}

// writeChunk stores data within a single mapping and a single page,
// privatizing the page first for private mappings (copy-on-write).
func (as *AS) writeChunk(s *Seg, addr uint32, p []byte) error {
	if s.Shared {
		if s.Obj == nil {
			return errors.New("mem: shared mapping without object")
		}
		return s.Obj.WriteObj(p, s.Off+int64(addr)-int64(s.Base))
	}
	pb := as.pageBase(addr)
	pg, ok := s.priv[pb]
	if !ok {
		// Materializing a private page is the model's page-frame allocation:
		// a copy for object-backed pages (COW), zero-fill otherwise. The
		// injection sites sit before any state changes, so a refused
		// materialization leaves the page exactly as it was.
		if s.Obj != nil {
			if siteFaultCOW.Hit(as.owner) {
				return ErrNoMem
			}
		} else if siteFaultPage.Hit(as.owner) {
			return ErrNoMem
		}
		// A recycled frame holds a dead page's bytes: the COW fill writes
		// every byte (the ReadObj contract), and zero-fill clears it.
		pg = takeFrame(as.pagesize)
		if s.Obj != nil {
			off := s.Off + int64(pb) - int64(s.Base)
			s.Obj.ReadObj(pg, off)
			as.Stats.COWFaults++
			if s.tail != nil && s.tail.off == off {
				// The memoized padded copy of this page is dead now.
				s.tail = nil
			}
		} else {
			clear(pg)
			as.Stats.MinorFaults++
		}
		s.priv[pb] = pg
		// The page now resolves to private storage instead of the backing
		// object (or the zero page): cached translations are stale.
		as.invalidate()
	}
	copy(pg[addr-pb:], p)
	return nil
}

// PrivatePages returns the number of copy-on-write privatized pages in the
// mapping — observable evidence that breakpoint writes did not touch the
// underlying object.
func (s *Seg) PrivatePages() int { return len(s.priv) }
