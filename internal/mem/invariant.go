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
	for _, w := range as.watches {
		if w.Len == 0 {
			return fmt.Errorf("mem: zero-length watchpoint at %#x", w.Addr)
		}
	}
	return nil
}

// CheckFrames verifies the frame invariants across a set of live address
// spaces, each listed once (vfork sharers alias one space): no frame backs
// two private pages, no frame on the free list backs a private page or sits
// on the list twice, and no space holds dropped frames that missed their
// Reclaim. Like CheckInvariants it reads the spaces without their locks, so
// the caller must have quiesced them.
func CheckFrames(spaces []*AS) error {
	backs := make(map[*byte]int) // frame -> owning pid (-1: the free list)
	for _, as := range spaces {
		if len(as.dropped) != 0 {
			return fmt.Errorf("mem: space of pid %d holds %d dropped frames awaiting Reclaim",
				as.owner, len(as.dropped))
		}
		for _, s := range as.segs {
			for pb, pg := range s.priv {
				if pid, ok := backs[&pg[0]]; ok {
					return fmt.Errorf("mem: frame of pid %d page %#x also backs a page of pid %d",
						as.owner, pb, pid)
				}
				backs[&pg[0]] = as.owner
			}
		}
	}
	freeFrames.mu.Lock()
	defer freeFrames.mu.Unlock()
	for _, pg := range freeFrames.f[:freeFrames.n] {
		if pid, ok := backs[&pg[0]]; ok {
			if pid < 0 {
				return fmt.Errorf("mem: a frame is on the free list twice")
			}
			return fmt.Errorf("mem: a frame on the free list backs a private page of pid %d", pid)
		}
		backs[&pg[0]] = -1
	}
	return nil
}
