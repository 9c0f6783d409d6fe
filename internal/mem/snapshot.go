package mem

// ASState is a deep copy of an address space's mutable state, captured for
// whole-kernel checkpoints. Unlike Dup (fork semantics), it preserves the
// watchpoint list, the page-event statistics, the vfork sharing count and
// the fault-injection owner — everything needed to rewind the space to the
// capture point in place. Backing objects are aliased, not copied: the
// file-system snapshot restores their contents separately, and the
// checkpoint as a whole is only coherent when both are restored together.
type ASState struct {
	segs     []*Seg // deep copies of the mappings
	stackIdx int    // index into segs of the stack designation (-1: none)
	brkIdx   int    // index into segs of the break designation (-1: none)
	stackLim uint32
	watches  []Watch
	stats    Stats
	refs     int
	owner    int
}

// copySegs deep-copies a mapping list, reporting where the stack and break
// designations land in the copy. Fork (Dup) and checkpoints share it; the
// private pages are copied into frames from the free list.
func copySegs(segs []*Seg, stack, brk *Seg) (out []*Seg, stackIdx, brkIdx int) {
	stackIdx, brkIdx = -1, -1
	out = make([]*Seg, len(segs))
	for i, s := range segs {
		ns := &Seg{
			Base: s.Base, Len: s.Len, Prot: s.Prot, MaxProt: s.MaxProt,
			Shared: s.Shared, Obj: s.Obj, Off: s.Off, Kind: s.Kind,
			priv: make(map[uint32][]byte, len(s.priv)),
		}
		for pb, pg := range s.priv {
			cp := takeFrame(uint32(len(pg)))
			copy(cp, pg)
			ns.priv[pb] = cp
		}
		out[i] = ns
		if s == stack {
			stackIdx = i
		}
		if s == brk {
			brkIdx = i
		}
	}
	return out, stackIdx, brkIdx
}

// adopt installs a mapping list from copySegs with its designations.
func (as *AS) adopt(segs []*Seg, stackIdx, brkIdx int) {
	as.segs = segs
	as.stack, as.brk = nil, nil
	if stackIdx >= 0 {
		as.stack = segs[stackIdx]
	}
	if brkIdx >= 0 {
		as.brk = segs[brkIdx]
	}
}

// SaveState captures the address space.
func (as *AS) SaveState() *ASState {
	as.mu.Lock()
	defer as.mu.Unlock()
	segs, stackIdx, brkIdx := copySegs(as.segs, as.stack, as.brk)
	return &ASState{
		segs: segs, stackIdx: stackIdx, brkIdx: brkIdx,
		stackLim: as.stackLim,
		watches:  append([]Watch(nil), as.watches...),
		stats:    as.Stats,
		refs:     as.refs,
		owner:    as.owner,
	}
}

// LoadState restores the address space in place to a state captured by
// SaveState. The state remains reusable (it is copied again, not moved), so
// one checkpoint can be restored any number of times. The translation
// generation is bumped, which invalidates every TLB entry caching frames of
// this space — the one piece of derived state that must not survive.
func (as *AS) LoadState(st *ASState) {
	as.mu.Lock()
	defer as.mu.Unlock()
	segs, _, _ := copySegs(st.segs, nil, nil)
	as.adopt(segs, st.stackIdx, st.brkIdx)
	as.stackLim = st.stackLim
	as.watches = append([]Watch(nil), st.watches...)
	as.Stats = st.stats
	as.refs = st.refs
	as.owner = st.owner
	as.invalidate()
}
