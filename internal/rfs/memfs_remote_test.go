package rfs_test

import (
	"errors"
	"testing"

	"repro"
	"repro/internal/memfs"
	"repro/internal/rfs"
	"repro/internal/types"
	"repro/internal/vfs"
)

// A remote write at any offset reaches memfs: one whose end would pass
// memfs's size cap fails with ENOSPC across the wire instead of growing
// the file on the server's host, and the server goes on serving.
func TestRemoteMemfsWritePastCap(t *testing.T) {
	s := repro.NewSystem(repro.Options{})
	defer s.Close()
	srv := rfs.NewServer(s.NS, nil)
	cl := rfs.NewClient(rfs.LocalTransport{S: srv}, types.RootCred())
	f, err := cl.Open("/tmp/capped", vfs.ORead|vfs.OWrite|vfs.OCreat)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Pwrite([]byte{1}, memfs.MaxFileSize); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("write past the cap: %v, want errors.Is ErrNoSpace", err)
	}
	if _, err := f.Pwrite([]byte{7}, 0); err != nil {
		t.Fatalf("write after the refused one: %v", err)
	}
	a, err := cl.Stat("/tmp/capped")
	if err != nil {
		t.Fatal(err)
	}
	if a.Size != 1 {
		t.Fatalf("size %d after the refused write, want 1", a.Size)
	}
}
