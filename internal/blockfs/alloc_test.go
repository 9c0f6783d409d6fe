package blockfs

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/vfs"
)

// TestSmallIOAllocBudget pins the steady-state cost of the two hot paths on
// a warm file system: a 512 B in-place write — a full journal transaction,
// with a checkpoint every few runs as the small journal fills — and a
// 512 B cached read. Neither may allocate: transaction slots, pre-images,
// the descriptor/commit scratch block and the flush list are all reused.
func TestSmallIOAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	fault.Guard(t)
	fs, _ := newTestFS(t, 1024)
	if err := writeFile(fs.Root(), "f", pattern(7, 4*BlockSize)); err != nil {
		t.Fatalf("setup: %v", err)
	}
	vn, err := fs.Root().VLookup("f", testCred)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	h, err := vn.VOpen(vfs.ORead|vfs.OWrite, testCred)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer h.HClose()
	buf := pattern(8, 512)
	write := func() {
		if n, err := h.HWrite(buf, BlockSize+256); n != len(buf) || err != nil {
			t.Fatalf("HWrite: %d, %v", n, err)
		}
	}
	read := func() {
		if n, err := h.HRead(buf, BlockSize+256); n != len(buf) || err != nil {
			t.Fatalf("HRead: %d, %v", n, err)
		}
	}
	// Warm up past the first checkpoint so every slot and scratch buffer
	// has reached its steady-state size.
	for i := 0; i < 64; i++ {
		write()
	}
	if a := testing.AllocsPerRun(200, write); a != 0 {
		t.Errorf("512 B in-place HWrite: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, read); a != 0 {
		t.Errorf("512 B cached HRead: %v allocs/op, want 0", a)
	}
}
