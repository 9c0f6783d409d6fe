package procfs2_test

import (
	"testing"

	"repro"
	"repro/internal/fault"
	"repro/internal/vfs"
)

// A write to /procx/faults is all or nothing: a batch whose second line
// names no site is refused, and its first line is not applied either. The
// same batch without the bad line arms both of its sites.
func TestFaultsWriteAllOrNothing(t *testing.T) {
	fault.Guard(t)
	s := repro.NewSystem()
	f := openf(t, s, "/procx/faults", vfs.OWrite)
	defer f.Close()
	if _, err := f.Write([]byte("mem.page nth=3\nbogus.site nth=1")); err == nil {
		t.Fatal("a write naming an unknown site was accepted")
	}
	if sp, ok := fault.Default.Lookup("mem.page").Plan(); ok {
		t.Fatalf("the refused write armed mem.page with %q", sp)
	}
	if _, err := f.Write([]byte("mem.page nth=3\nmem.cow every=2")); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]fault.Spec{"mem.page": {Nth: 3}, "mem.cow": {Every: 2}} {
		if sp, ok := fault.Default.Lookup(name).Plan(); !ok || sp != want {
			t.Errorf("%s plan = %+v, %v; want %+v", name, sp, ok, want)
		}
	}
}
