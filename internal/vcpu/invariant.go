package vcpu

import (
	"fmt"

	"repro/internal/mem"
)

// CheckTLB verifies the TLB's generation contract: when the cache claims to
// be current (same AS pointer, same generation), every entry must agree with
// a fresh PageFrame translation. The fault-storm harness calls it after every
// injected fault — a refused allocation must never leave a stale translation
// behind at an unchanged generation. A cache keyed to an old generation or a
// different space is legal (it drops itself on the next access), so that
// case passes the per-entry check. Whatever its generation, a keyed cache
// must hold nothing outside its occupancy mask: reset clears only the
// occupied slots, so a fill that skipped the mask would survive a reset.
//
// The fetch window is held to the same contract: a window under the
// current key must agree with a fresh PageFrame translation of its page —
// the same frame, execute permission, and the same object and revision.
// A TLB without an entry array (new, flushed, or given back by ReleaseTLB)
// is accepted only when it holds no window and no occupied slot, and only
// a keyed TLB may hold an array.
func (c *CPU) CheckTLB() error {
	t := &c.tlb
	switch {
	case t.ents == nil:
		if t.win.frame != nil || t.win.obj != nil {
			return fmt.Errorf("vcpu: fetch window for %#x survives in a released TLB", t.win.base)
		}
		if t.used != 0 {
			return fmt.Errorf("vcpu: released TLB claims occupied slots %#x", t.used)
		}
		return nil
	case t.as == nil:
		return fmt.Errorf("vcpu: un-keyed TLB holds an entry array")
	}
	for i := range t.ents {
		e := &t.ents[i]
		if t.used&(1<<i) == 0 && (e.tag != tlbNoTag || e.frame != nil || e.obj != nil) {
			return fmt.Errorf("vcpu: TLB slot %d holds %#x outside the occupancy mask", i, e.tag)
		}
	}
	if c.AS == nil || t.as != c.AS || t.gen != c.AS.Gen() {
		return nil
	}
	if err := c.checkWindow(); err != nil {
		return err
	}
	for i := range t.ents {
		e := &t.ents[i]
		if e.tag == tlbNoTag {
			continue
		}
		if e.obj != nil && e.obj.ObjRev() != e.rev {
			// Stale by object revision: legal, revalidated away on hit.
			continue
		}
		f, ok := c.AS.PageFrame(e.tag)
		if e.frame == nil && e.prot == 0 {
			// Negative entry: the address space refused this page at fill
			// time and the generation has not moved since.
			if ok {
				return fmt.Errorf("vcpu: negative TLB entry for %#x but PageFrame now succeeds", e.tag)
			}
			continue
		}
		if !ok {
			return fmt.Errorf("vcpu: TLB entry for %#x but PageFrame now refuses it", e.tag)
		}
		if f.Prot != e.prot || f.Writable != e.writable {
			return fmt.Errorf("vcpu: TLB entry for %#x has prot=%v writable=%v, PageFrame says prot=%v writable=%v",
				e.tag, e.prot, e.writable, f.Prot, f.Writable)
		}
		if e.obj == nil {
			// Private or zero-page frames alias one live slice; an entry
			// pointing anywhere else serves stale data.
			if len(e.frame) != len(f.Data) || (len(f.Data) > 0 && &e.frame[0] != &f.Data[0]) {
				return fmt.Errorf("vcpu: TLB entry for %#x aliases the wrong frame", e.tag)
			}
		} else if f.Obj != e.obj || f.Rev != e.rev {
			return fmt.Errorf("vcpu: TLB entry for %#x disagrees with PageFrame on object/revision", e.tag)
		}
	}
	return nil
}

// checkWindow compares a fetch window under the current key with a fresh
// translation of its page. A window stale by object revision is legal: the
// next fetch revalidates it away.
func (c *CPU) checkWindow() error {
	w := &c.tlb.win
	if w.frame == nil || (w.obj != nil && w.obj.ObjRev() != w.rev) {
		return nil
	}
	f, ok := c.AS.PageFrame(w.base)
	switch {
	case !ok:
		return fmt.Errorf("vcpu: fetch window for %#x but PageFrame now refuses it", w.base)
	case f.Prot&mem.ProtExec == 0:
		return fmt.Errorf("vcpu: fetch window for %#x on a page without execute permission (%v)", w.base, f.Prot)
	case len(w.frame) != len(f.Data) || &w.frame[0] != &f.Data[0]:
		return fmt.Errorf("vcpu: fetch window for %#x aliases the wrong frame", w.base)
	case f.Obj != w.obj || f.Rev != w.rev:
		return fmt.Errorf("vcpu: fetch window for %#x disagrees with PageFrame on object/revision", w.base)
	}
	return nil
}
