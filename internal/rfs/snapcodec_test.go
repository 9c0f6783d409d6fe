package rfs

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/kernel"
	"repro/internal/procfs"
)

// A PIOCSNAP request claiming a huge pid filter over a handful of bytes is
// rejected without first allocating the filter.
func TestSnapArgBoundsPidCount(t *testing.T) {
	b := make([]byte, 4+8+4)
	binary.BigEndian.PutUint32(b[12:], 1<<20)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := snapCodec.decodeArg(b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a pid count of 1<<20 over an empty body was accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("rejecting the request allocated %d bytes", n)
	}
}

// FuzzSnapCodec drives both halves of the PIOCSNAP codec with arbitrary
// bytes: neither decoder panics, and whatever one accepts re-encodes to
// bytes that decode to an equal PrSnap.
func FuzzSnapCodec(f *testing.F) {
	arg, _ := snapCodec.encodeArg(&procfs.PrSnap{WithUsage: true, Rev: 3, Pids: []int{1, 5, -2}})
	res, _ := snapCodec.appendResult(nil, &procfs.PrSnap{Rev: 4, Churned: true, Procs: []procfs.PrSnapRec{
		{Info: kernel.PSInfo{Pid: 5, PPid: 1, State: 'R', Comm: "worker", Args: "worker -n"},
			Usage: procfs.PrUsage{Usage: kernel.Usage{UserTicks: 7}, COWFaults: 2}},
		{Info: kernel.PSInfo{Pid: 6, State: 'Z'}},
	}})
	f.Add([]byte{})
	f.Add(arg)
	f.Add(res)
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, err := snapCodec.decodeArg(b); err == nil {
			sn := got.(*procfs.PrSnap)
			enc, err := snapCodec.encodeArg(sn)
			if err != nil {
				t.Fatalf("re-encode of an accepted argument: %v", err)
			}
			again, err := snapCodec.decodeArg(enc)
			if err != nil {
				t.Fatalf("re-decode of an accepted argument: %v", err)
			}
			if !reflect.DeepEqual(sn, again) {
				t.Fatalf("argument round trip:\n got %+v\nwant %+v", again, sn)
			}
		}
		var sn procfs.PrSnap
		if err := snapCodec.decodeResult(b, &sn); err != nil {
			return
		}
		enc, err := snapCodec.appendResult(nil, &sn)
		if err != nil {
			t.Fatalf("re-encode of an accepted result: %v", err)
		}
		var again procfs.PrSnap
		if err := snapCodec.decodeResult(enc, &again); err != nil {
			t.Fatalf("re-decode of an accepted result: %v", err)
		}
		if !reflect.DeepEqual(sn, again) {
			t.Fatalf("result round trip:\n got %+v\nwant %+v", again, sn)
		}
	})
}
