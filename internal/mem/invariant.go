package mem

import "fmt"

// CheckInvariants verifies the structural invariants of the address space.
// The fault-storm harness calls it after every injected fault: a failed
// allocation anywhere in the VM layer must leave the space exactly as
// consistent as it found it. It returns the first violation found, or nil.
func (as *AS) CheckInvariants() error {
	ps := uint64(as.pagesize)
	if ps == 0 || ps&(ps-1) != 0 {
		return fmt.Errorf("mem: page size %d not a power of two", ps)
	}
	if as.refs < 1 {
		return fmt.Errorf("mem: reference count %d on a live space", as.refs)
	}
	var prevEnd uint64
	stackSeen, brkSeen := false, false
	for i, s := range as.segs {
		if uint64(s.Base)%ps != 0 {
			return fmt.Errorf("mem: seg %d base %#x not page aligned", i, s.Base)
		}
		// Only the break may be empty: brk(2) down to its base leaves the
		// segment in place, covering no address, so the break can grow
		// from it again.
		if (s.Len == 0 && s != as.brk) || uint64(s.Len)%ps != 0 {
			return fmt.Errorf("mem: seg %d length %#x not a page multiple", i, s.Len)
		}
		if s.End() > 1<<32 {
			return fmt.Errorf("mem: seg %d extends past the address space", i)
		}
		if i > 0 && uint64(s.Base) < prevEnd {
			return fmt.Errorf("mem: seg %d at %#x overlaps or disorders predecessor ending %#x",
				i, s.Base, prevEnd)
		}
		prevEnd = s.End()
		if s.Prot&^s.MaxProt != 0 {
			return fmt.Errorf("mem: seg %d prot %v exceeds max %v", i, s.Prot, s.MaxProt)
		}
		if s.Shared && s.Obj == nil {
			return fmt.Errorf("mem: seg %d shared without a backing object", i)
		}
		if s.priv == nil {
			return fmt.Errorf("mem: seg %d has no private-page map", i)
		}
		for pb, pg := range s.priv {
			if uint64(pb)%ps != 0 {
				return fmt.Errorf("mem: seg %d private page %#x not aligned", i, pb)
			}
			if !s.Contains(pb) {
				return fmt.Errorf("mem: seg %d private page %#x out of bounds", i, pb)
			}
			if uint64(len(pg)) != ps {
				return fmt.Errorf("mem: seg %d private page %#x has size %d", i, pb, len(pg))
			}
		}
		if s == as.stack {
			stackSeen = true
		}
		if s == as.brk {
			brkSeen = true
		}
	}
	if as.stack != nil && !stackSeen {
		return fmt.Errorf("mem: stack segment not in the mapping list")
	}
	if as.brk != nil && !brkSeen {
		return fmt.Errorf("mem: break segment not in the mapping list")
	}
	// watchPgs must be exactly the pages spanned by the watch list.
	want := make(map[uint32]bool)
	for _, w := range as.watches {
		if w.Len == 0 {
			return fmt.Errorf("mem: zero-length watchpoint at %#x", w.Addr)
		}
		for pb := as.pageBase(w.Addr); ; pb += as.pagesize {
			want[pb] = true
			if uint64(pb)+ps >= uint64(w.Addr)+uint64(w.Len) {
				break
			}
		}
	}
	if len(want) != len(as.watchPgs) {
		return fmt.Errorf("mem: watch page cache has %d pages, watch list spans %d",
			len(as.watchPgs), len(want))
	}
	for pb := range want {
		if !as.watchPgs[pb] {
			return fmt.Errorf("mem: watch page cache missing page %#x", pb)
		}
	}
	return nil
}
