package mem

import "repro/internal/types"

// Watch is a data watchpoint: a watched area of any size, down to a single
// byte, with the access modes that trigger it. This implements the paper's
// proposed generalized data watchpoint facility, which is based on the VM
// system's ability to re-map read/write permissions on individual pages: the
// traced process stops only when a watchpoint really fires, and the system
// takes care of recovering from machine faults taken due to references to
// unwatched data that happen to fall in the same page as watched data.
type Watch struct {
	Addr uint32 // first watched address
	Len  uint32 // number of watched bytes (>= 1)
	Mode Prot   // ProtRead and/or ProtWrite: which accesses trigger
}

// overlapsAccess reports whether an access of n bytes at addr with modes
// `want` triggers the watchpoint.
func (w Watch) overlapsAccess(addr uint32, n int, want Prot) bool {
	if want&w.Mode == 0 {
		return false
	}
	aEnd := uint64(addr) + uint64(n)
	wEnd := uint64(w.Addr) + uint64(w.Len)
	return uint64(addr) < wEnd && aEnd > uint64(w.Addr)
}

// SetWatch establishes a watchpoint. A zero-length or zero-mode watch is
// rejected silently by being ignored.
func (as *AS) SetWatch(addr, length uint32, mode Prot) {
	if length == 0 || mode&(ProtRead|ProtWrite) == 0 {
		return
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	as.watches = append(as.watches, Watch{Addr: addr, Len: length, Mode: mode})
	as.invalidate()
}

// ClearWatch removes all watchpoints starting at addr. It builds a fresh
// slice rather than filtering in place so that a WatchesView taken before
// the clear keeps describing the pre-clear state.
func (as *AS) ClearWatch(addr uint32) {
	as.mu.Lock()
	defer as.mu.Unlock()
	var out []Watch
	for _, w := range as.watches {
		if w.Addr != addr {
			out = append(out, w)
		}
	}
	as.watches = out
	as.invalidate()
}

// ClearAllWatches removes every watchpoint.
func (as *AS) ClearAllWatches() {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.watches = nil
	as.invalidate()
}

// Watches returns a copy of the active watchpoints.
func (as *AS) Watches() []Watch { return append([]Watch(nil), as.watches...) }

// WatchesView returns the live watchpoint slice without copying. Callers
// must not mutate it, and the view is only valid until the next watchpoint
// change — read-and-encode paths (PIOCGWATCH, status readers) walk it once
// and drop it. Watchpoint mutations build fresh slices, so a view taken
// before a change still describes the pre-change state.
func (as *AS) WatchesView() []Watch { return as.watches }

// NWatches returns the number of active watchpoints without copying.
func (as *AS) NWatches() int { return len(as.watches) }

// pagesWatched reports whether a page overlapping [addr, end) holds a
// watched byte. It is computed from the watch list itself, so a watch
// costs the same whatever its length, up to the whole address space.
// Watched pages are never frame-cached (PageFrame refuses them), so every
// change to the watch list invalidates the cached translations.
func (as *AS) pagesWatched(addr, end uint64) bool {
	ps := uint64(as.pagesize)
	lo, hi := addr&^(ps-1), (end+ps-1)&^(ps-1)
	for _, w := range as.watches {
		if uint64(w.Addr) < hi && uint64(w.Addr)+uint64(w.Len) > lo {
			return true
		}
	}
	return false
}

// checkWatch implements the page-protection watchpoint model. If the access
// touches a page containing watched data, the hardware would fault; the
// system then either reports FLTWATCH (the access really overlaps a watched
// range with a triggering mode) or transparently recovers and retries (it
// does not). Recoveries are counted in Stats.WatchRecover: they are the cost
// the paper's design accepts to watch areas smaller than a page.
func (as *AS) checkWatch(addr uint32, n int, want Prot) error {
	if len(as.watches) == 0 {
		return nil
	}
	if !as.pagesWatched(uint64(addr), uint64(addr)+uint64(n)) {
		return nil
	}
	for _, w := range as.watches {
		if w.overlapsAccess(addr, n, want) {
			return &AccessError{Addr: w.Addr, Fault: types.FLTWATCH}
		}
	}
	as.Stats.WatchRecover++
	return nil
}
