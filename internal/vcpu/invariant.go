package vcpu

import (
	"fmt"

	"repro/internal/mem"
)

// CheckTLB verifies the TLB's key contract: when the cache claims to be
// current (same AS pointer, same generation, same epoch), every entry and
// the fetch window must agree with a fresh PageFrame translation. The
// fault-storm harness calls it after every injected fault — a refused
// allocation must never leave a stale translation behind under an
// unchanged key. A cache under an old key is legal (it drops itself on the
// next access), so that case passes the per-entry check. Whatever its key,
// a keyed cache must hold nothing outside its occupancy mask: reset clears
// only the occupied slots, so a fill that skipped the mask would survive a
// reset.
//
// A positive entry must alias the very frame PageFrame returns now, with
// its permissions; a negative one must still be refused. The window must
// alias the same frame on an executable page. A TLB without an entry array
// (new, flushed, or given back by ReleaseTLB) is accepted only when it
// holds no window and no occupied slot, and only a keyed TLB may hold an
// array.
func (c *CPU) CheckTLB() error {
	t := &c.tlb
	switch {
	case t.ents == nil:
		if t.win.frame != nil {
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
		if t.used&(1<<i) == 0 && (e.tag != tlbNoTag || e.frame != nil) {
			return fmt.Errorf("vcpu: TLB slot %d holds %#x outside the occupancy mask", i, e.tag)
		}
	}
	if c.AS == nil || !t.current(c.AS) {
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
		f, ok := c.AS.PageFrame(e.tag)
		if e.frame == nil && e.prot == 0 {
			// Negative entry: the address space refused this page at fill
			// time and the key has not moved since.
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
		if !sameFrame(e.frame, f.Data) {
			return fmt.Errorf("vcpu: TLB entry for %#x aliases the wrong frame", e.tag)
		}
	}
	return nil
}

// checkWindow compares a fetch window under the current key with a fresh
// translation of its page.
func (c *CPU) checkWindow() error {
	w := &c.tlb.win
	if w.frame == nil {
		return nil
	}
	f, ok := c.AS.PageFrame(w.base)
	switch {
	case !ok:
		return fmt.Errorf("vcpu: fetch window for %#x but PageFrame now refuses it", w.base)
	case f.Prot&mem.ProtExec == 0:
		return fmt.Errorf("vcpu: fetch window for %#x on a page without execute permission (%v)", w.base, f.Prot)
	case !sameFrame(w.frame, f.Data):
		return fmt.Errorf("vcpu: fetch window for %#x aliases the wrong frame", w.base)
	}
	return nil
}

// sameFrame reports whether a cached frame aliases the live one: a frame
// pointing anywhere else serves stale data.
func sameFrame(cached, live []byte) bool {
	return len(cached) == len(live) && (len(live) == 0 || &cached[0] == &live[0])
}
