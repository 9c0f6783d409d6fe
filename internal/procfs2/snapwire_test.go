package procfs2_test

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/kernel"
	"repro/internal/procfs"
	"repro/internal/procfs2"
)

// sampleSnap is a small table with every field set, a zombie with zero
// usage, and strings of several shapes.
func sampleSnap() *procfs.PrSnap {
	return &procfs.PrSnap{Rev: 9, Churned: true, Procs: []procfs.PrSnapRec{
		{Info: kernel.PSInfo{Pid: 1, PPid: 0, Pgrp: 1, Sid: 1, State: 'S', VSize: 8192,
			Time: 4, Start: 1, NLWP: 1, Comm: "init", Args: "init"}},
		{Info: kernel.PSInfo{Pid: 5, PPid: 1, Pgrp: 5, Sid: 5, UID: 100, GID: 10, State: 'R',
			Nice: -3, VSize: 1 << 20, Time: 77, Start: 12, NLWP: 2, Comm: "worker", Args: "worker -n 3"},
			Usage: procfs.PrUsage{Usage: kernel.Usage{UserTicks: 70, SysTicks: 7, Syscalls: 40,
				Faults: 3, Signals: 1, ForkedKids: 2, VolCtx: 5, InvolCtx: 6},
				MinorFaults: 11, COWFaults: 2, WatchRecover: 1, StackGrows: 1}},
		{Info: kernel.PSInfo{Pid: 6, PPid: 5, State: 'Z', Comm: "日本"}},
	}}
}

func TestSnapRoundTrip(t *testing.T) {
	want := sampleSnap()
	b := procfs2.AppendSnap([]byte("prefix"), want)
	if string(b[:6]) != "prefix" {
		t.Fatal("AppendSnap clobbered dst")
	}
	var got procfs.PrSnap
	if err := procfs2.DecodeSnapInto(b[6:], &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	// Decoding again into the same PrSnap reuses its record slice.
	before := &got.Procs[0]
	if err := procfs2.DecodeSnapInto(b[6:], &got); err != nil {
		t.Fatal(err)
	}
	if &got.Procs[0] != before {
		t.Fatal("DecodeSnapInto reallocated Procs despite sufficient capacity")
	}
	for cut := 0; cut < len(b)-6; cut++ {
		if err := procfs2.DecodeSnapInto(b[6:6+cut], &got); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if len(got.Procs) != 0 {
			t.Fatalf("failed decode at %d left %d records", cut, len(got.Procs))
		}
	}
}

// allocBytes reports the bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A header claiming a huge record count over a handful of bytes must be
// rejected without first allocating for the count: untrusted input cannot
// make the decoder reserve memory the bytes could never fill.
func TestDecodersBoundCountByInput(t *testing.T) {
	snapHdr := make([]byte, 16)
	binary.BigEndian.PutUint32(snapHdr[12:], 1<<20)
	mapHdr := binary.BigEndian.AppendUint32(nil, 1<<20)
	for _, c := range []struct {
		name   string
		decode func() error
	}{
		{"snapshot", func() error {
			var sn procfs.PrSnap
			return procfs2.DecodeSnapInto(snapHdr, &sn)
		}},
		{"map", func() error { _, err := procfs2.DecodeMap(mapHdr); return err }},
	} {
		var err error
		n := allocBytes(func() { err = c.decode() })
		if err == nil {
			t.Errorf("%s: a count of 1<<20 over an empty body was accepted", c.name)
		}
		if n >= 1<<20 {
			t.Errorf("%s: rejecting the header allocated %d bytes", c.name, n)
		}
	}
}

// FuzzDecodeSnap: arbitrary bytes never panic the snapshot decoder, and
// anything it accepts re-encodes to bytes that decode to an equal PrSnap.
func FuzzDecodeSnap(f *testing.F) {
	f.Add([]byte{})
	f.Add(procfs2.AppendSnap(nil, &procfs.PrSnap{}))
	f.Add(procfs2.AppendSnap(nil, sampleSnap()))
	f.Fuzz(func(t *testing.T, b []byte) {
		var sn procfs.PrSnap
		if err := procfs2.DecodeSnapInto(b, &sn); err != nil {
			return
		}
		var again procfs.PrSnap
		if err := procfs2.DecodeSnapInto(procfs2.AppendSnap(nil, &sn), &again); err != nil {
			t.Fatalf("re-decode of an accepted snapshot failed: %v", err)
		}
		if !reflect.DeepEqual(sn, again) {
			t.Fatalf("re-encoded snapshot differs:\n got %+v\nwant %+v", again, sn)
		}
	})
}
