package mem

import (
	"bytes"
	"errors"

	"repro/internal/types"
)

// ErrNotMapped is returned by ReadAt/WriteAt when the starting offset lies in
// an unmapped area: "I/O operations with a file offset in an unmapped area
// fail". Operations that merely extend into unmapped areas do not fail but
// are truncated at the boundary.
var ErrNotMapped = errors.New("mem: address not mapped")

// ErrTooLong is returned by CString when no NUL ends the string within its
// bound.
var ErrTooLong = errors.New("mem: string too long")

// rule is an access rule: the checks the walk makes of each page before it
// hands the page on. Every entry point below fixes its own rule.
type rule uint8

const (
	// procRule is the /proc as-file rule: any mapped byte, whatever its
	// protection, so a controlling process can read protected memory and
	// plant breakpoints in read/exec text through copy-on-write. A transfer
	// is cut short at the first unmapped byte; the stack does not grow.
	procRule rule = iota
	// sysRule is a system call's copyin and copyout: the process's own
	// references, so each page must grant the access, and a reference in the
	// stack's growth region grows the stack. Watchpoints are not checked
	// (DESIGN.md, "System calls and watched areas").
	sysRule
	// cpuRule is an instruction's load, store or fetch: sysRule plus the
	// watchpoint check of loads and stores.
	cpuRule
)

// errStop ends a walk early without failing it.
var errStop = errors.New("mem: walk stopped")

// walk is the address space's one segment walk. It hands [addr, addr+n) to
// do one chunk at a time, each chunk within one mapping and one page, after
// applying the rule r to that page: do gets the chunk's mapping, address,
// offset in the range and length. An error from do ends the walk, and
// errStop ends it quietly. walk returns how many bytes do took.
//
// Under procRule the walk ends at the first unmapped byte. Under sysRule
// and cpuRule it ends at the first page that fails, with an *AccessError,
// after the pages before it were handed on. A vCPU access never crosses a
// page (words and the pc are 4-aligned, bytes single), so for it checking
// and copying page by page is checking the whole access first. A system
// call whose buffer runs into a bad page has copied the bytes before it,
// and fails with EFAULT.
func (as *AS) walk(addr uint32, n int, want Prot, r rule, do func(s *Seg, at uint32, off, chunk int) error) (int, error) {
	off := 0
	for off < n {
		at := uint64(addr) + uint64(off)
		if at >= 1<<32 { // the range runs off the top of the space
			if r == procRule {
				break
			}
			return off, &AccessError{Addr: addr, Fault: types.FLTBOUNDS}
		}
		s := as.FindSeg(uint32(at))
		if s == nil && r != procRule && as.tryGrowStack(uint32(at)) {
			s = as.FindSeg(uint32(at))
		}
		if s == nil {
			if r == procRule {
				break
			}
			return off, &AccessError{Addr: uint32(at), Fault: types.FLTBOUNDS}
		}
		if r != procRule && want&^s.Prot != 0 {
			return off, &AccessError{Addr: uint32(at), Fault: types.FLTACCESS}
		}
		chunk := int(min(s.End(), at+uint64(n-off), as.pageEnd(at)) - at)
		if r == cpuRule && want&(ProtRead|ProtWrite) != 0 {
			if err := as.checkWatch(uint32(at), chunk, want); err != nil {
				return off, err
			}
		}
		if err := do(s, uint32(at), off, chunk); err != nil {
			if err == errStop {
				err = nil
			}
			return off, err
		}
		off += chunk
	}
	return off, nil
}

// copyWalk walks p's range at addr, copying each chunk out of the space
// into p, or with write from p into the space.
func (as *AS) copyWalk(addr uint32, p []byte, write bool, want Prot, r rule) (int, error) {
	return as.walk(addr, len(p), want, r, func(s *Seg, at uint32, off, n int) error {
		if write {
			return as.writeChunk(s, at, p[off:off+n])
		}
		as.readChunk(s, at, p[off:off+n])
		return nil
	})
}

// ReadAt implements the /proc read semantics on the address space: data may
// be transferred from any valid locations; a starting offset in an unmapped
// area fails; reads extending into unmapped areas are truncated at the
// boundary. Reads are permitted regardless of mapping permissions (the
// controlling process may inspect read-protected memory).
func (as *AS) ReadAt(p []byte, off int64) (int, error) { return as.procIO(p, off, false) }

// WriteAt implements the /proc write semantics: writes to private mappings
// are satisfied by copy-on-write (writing to one process will not corrupt
// another process executing the same executable file or shared library);
// writes to shared mappings go through to the mapped object. A starting
// offset in an unmapped area fails; writes extending into unmapped areas are
// truncated at the boundary. Permissions are not checked, so a controlling
// process can plant breakpoints in read/exec text.
func (as *AS) WriteAt(p []byte, off int64) (int, error) { return as.procIO(p, off, true) }

// procIO is ReadAt and WriteAt: the walk under procRule.
func (as *AS) procIO(p []byte, off int64, write bool) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if off < 0 || off >= 1<<32 {
		return 0, ErrNotMapped
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	n, err := as.copyWalk(uint32(off), p, write, 0, procRule)
	if n > 0 {
		return n, nil
	}
	if err == nil {
		err = ErrNotMapped
	}
	return 0, err
}

// AccessRead performs a CPU load under cpuRule: the permission check,
// automatic stack growth, the watchpoint check and the copy in one walk. It
// is the vCPU's slow path; the TLB hit path skips even this.
func (as *AS) AccessRead(addr uint32, p []byte) error {
	return as.access(addr, p, false, ProtRead, cpuRule)
}

// AccessFetch is AccessRead with execute permission: an instruction fetch.
// Watchpoints watch reads and writes, so a fetch never triggers one.
func (as *AS) AccessFetch(addr uint32, p []byte) error {
	return as.access(addr, p, false, ProtExec, cpuRule)
}

// AccessWrite performs a CPU store under cpuRule, including copy-on-write
// materialization.
func (as *AS) AccessWrite(addr uint32, p []byte) error {
	return as.access(addr, p, true, ProtWrite, cpuRule)
}

// CopyIn fills p from the space at addr under sysRule: a system call's read
// of its caller's memory.
func (as *AS) CopyIn(addr uint32, p []byte) error {
	return as.access(addr, p, false, ProtRead, sysRule)
}

// CopyOut stores p into the space at addr under sysRule: a system call's
// write to its caller's memory.
func (as *AS) CopyOut(addr uint32, p []byte) error {
	return as.access(addr, p, true, ProtWrite, sysRule)
}

// access is the checked entry points' walk.
func (as *AS) access(addr uint32, p []byte, write bool, want Prot, r rule) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	_, err := as.copyWalk(addr, p, write, want, r)
	return err
}

// CString returns the NUL-terminated string at addr, excluding the NUL,
// read under sysRule: a system call's string argument. It scans the pages
// in place where pageBytes finds their bytes and copies the string's bytes
// once, into the result. It fails with an *AccessError if the string runs
// into a page the process may not read before its NUL, and with ErrTooLong
// if the first max bytes hold no NUL.
func (as *AS) CString(addr uint32, max int) (string, error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	var head []byte // the bytes of earlier chunks, when the string spans several
	str, found := "", false
	_, err := as.walk(addr, max, ProtRead, sysRule, func(s *Seg, at uint32, _, n int) error {
		var v []byte
		pb := as.pageBase(at)
		if b, _, ok := as.pageBytes(s, pb); ok {
			o := int(at - pb)
			v = b[min(o, len(b)):min(o+n, len(b))]
		} else {
			v = make([]byte, n)
			s.Obj.ReadObj(v, s.Off+int64(at)-int64(s.Base))
		}
		// A view shorter than the chunk ends at its object's end, past
		// which the bytes read zero: the string ends there too.
		i := bytes.IndexByte(v, 0)
		if i < 0 && len(v) == n {
			head = append(head, v...)
			return nil
		}
		if i >= 0 {
			v = v[:i]
		}
		if head == nil {
			str = string(v)
		} else {
			str = string(append(head, v...))
		}
		found = true
		return errStop
	})
	switch {
	case err != nil:
		return "", err
	case !found:
		return "", ErrTooLong
	}
	return str, nil
}

// pageEnd returns the address of the end of the page containing at.
func (as *AS) pageEnd(at uint64) uint64 {
	return (at &^ uint64(as.pagesize-1)) + uint64(as.pagesize)
}

// pageBytes is the page resolver: it says where the bytes of the page at
// pb in s live. They live in the materialized private page (private is
// true), in the shared zero page, or in the storage of a RevBytes object,
// which pageBytes exposes. The slice starts at pb and is at most a page
// long; where it is shorter the object ends inside the page, and the bytes
// past it read zero. ok is false when the bytes live nowhere addressable
// and must be read through ReadObj: another kind of object, or any object
// of a shared mapping, whose stores write through to it and must not move
// the epoch.
func (as *AS) pageBytes(s *Seg, pb uint32) (b []byte, private, ok bool) {
	if !s.Shared {
		if pg, ok := s.priv[pb]; ok {
			return pg, true, true
		}
	}
	if s.Obj == nil {
		return as.zero, false, true
	}
	rb, isRB := s.Obj.(RevBytes)
	off := s.Off + int64(pb) - int64(s.Base)
	if s.Shared || !isRB || off < 0 {
		return nil, false, false
	}
	data := rb.ObjBytes()
	if off >= int64(len(data)) {
		// Wholly past the object: zeros until it grows, which moves the
		// epoch.
		return as.zero, false, true
	}
	end := min(off+int64(as.pagesize), int64(cap(data)))
	return data[off:end:end], false, true
}

// readChunk copies out data within a single mapping and a single page.
func (as *AS) readChunk(s *Seg, addr uint32, p []byte) {
	pb := as.pageBase(addr)
	b, _, ok := as.pageBytes(s, pb)
	if !ok {
		s.Obj.ReadObj(p, s.Off+int64(addr)-int64(s.Base))
		return
	}
	clear(p[copy(p, b[min(int(addr-pb), len(b)):]):])
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
			s.Obj.ReadObj(pg, s.Off+int64(pb)-int64(s.Base))
			as.Stats.COWFaults++
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
