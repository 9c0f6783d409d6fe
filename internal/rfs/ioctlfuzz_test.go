package rfs

import (
	"reflect"
	"testing"

	"repro/internal/kernel"
	"repro/internal/procfs"
	"repro/internal/procfs2"
	"repro/internal/types"
	"repro/internal/vcpu"
)

// resultArg returns a fresh out-argument for cmd's result decoder: what
// the codec's own decodeArg makes, or an empty PrSnap for PIOCSNAP, whose
// decodeArg needs a request.
func resultArg(cmd int) interface{} {
	if cmd == procfs.PIOCSNAP {
		return &procfs.PrSnap{}
	}
	arg, _ := ioctlCodecs[cmd].decodeArg(nil)
	return arg
}

// FuzzIoctlCodec feeds the same bytes to both decoders of every registered
// codec. Neither may panic; an accepted argument re-encodes to bytes that
// decode to an equal argument, and an accepted result likewise.
func FuzzIoctlCodec(f *testing.F) {
	regs := vcpu.Regs{PC: 0x80000010, SP: 0x7FFF0000, PSW: 5}
	regs.R[7] = 0xDEADBEEF
	f.Add([]byte{})
	f.Add(encoder(procfs2.PutRegs)(regs))
	f.Add(encoder(putRun)(kernel.RunFlags{Step: true, SetPC: true, PC: 0x1234, SetSig: 9}))
	f.Add(procfs2.EncodeStatus(kernel.ProcStatus{Pid: 7, Why: kernel.WhyFaulted, What: types.FLTBPT, Reg: regs}))
	f.Add(procfs2.EncodeCred(types.Cred{RUID: 1, EUID: 2, Groups: []int{7, 8}}))
	f.Add(procfs2.EncodeMap([]procfs2.MapEntry{{Vaddr: 0x80000000, Size: 4096, Prot: 5, Name: "/bin/x"}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		for cmd, codec := range ioctlCodecs {
			if arg, err := codec.decodeArg(b); err == nil {
				enc, err := codec.encodeArg(arg)
				if err != nil {
					t.Fatalf("cmd %#x: re-encode of an accepted argument: %v", cmd, err)
				}
				again, err := codec.decodeArg(enc)
				if err != nil {
					t.Fatalf("cmd %#x: re-decode of an accepted argument: %v", cmd, err)
				}
				if !reflect.DeepEqual(arg, again) {
					t.Fatalf("cmd %#x: argument round trip:\n got %+v\nwant %+v", cmd, again, arg)
				}
				if codec.release != nil {
					codec.release(arg)
					codec.release(again)
				}
			}
			res := resultArg(cmd)
			if err := codec.decodeResult(b, res); err != nil {
				continue
			}
			enc, err := codec.appendResult(nil, res)
			if err != nil {
				t.Fatalf("cmd %#x: re-encode of an accepted result: %v", cmd, err)
			}
			again := resultArg(cmd)
			if err := codec.decodeResult(enc, again); err != nil {
				t.Fatalf("cmd %#x: re-decode of an accepted result: %v", cmd, err)
			}
			if !reflect.DeepEqual(res, again) {
				t.Fatalf("cmd %#x: result round trip:\n got %+v\nwant %+v", cmd, again, res)
			}
		}
	})
}
