package rfs

import (
	"errors"
	"sync"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/procfs"
	"repro/internal/procfs2"
	"repro/internal/types"
	"repro/internal/vcpu"
)

// ioctlCodec is one entry of the remote-ioctl marshalling registry. Every
// /proc ioctl that should work across RFS needs one of these: code that
// knows the operand's size, direction and layout. Contrast with read/write,
// which forward as plain bytes — precisely the paper's argument for the
// restructured interface.
//
// The result half is append-style: the server encodes the out-value straight
// onto the response frame it is building, so a large result (a PIOCSNAP
// table) is written once rather than encoded and then copied behind the
// headers.
//
// A codec whose server-side argument is large may recycle it: release, when
// set, takes back what decodeArg returned once the result is encoded.
type ioctlCodec struct {
	encodeArg    func(arg interface{}) ([]byte, error)
	decodeArg    func(b []byte) (interface{}, error)
	appendResult func(dst []byte, arg interface{}) ([]byte, error)
	decodeResult func(b []byte, arg interface{}) error
	release      func(arg interface{})
}

var errBadArg = errors.New("rfs: ioctl argument has the wrong type")

// nothing is the codec piece for absent halves.
func nothingIn(arg interface{}) ([]byte, error)                 { return nil, nil }
func nothingOut(b []byte, arg interface{}) error                { return nil }
func makeNothing(b []byte) (interface{}, error)                 { return nil, nil }
func resultNothing(dst []byte, arg interface{}) ([]byte, error) { return dst, nil }

// noArgCodec: commands with no operand at all (PIOCSFORK etc.).
var noArgCodec = ioctlCodec{
	encodeArg:    nothingIn,
	decodeArg:    makeNothing,
	appendResult: resultNothing,
	decodeResult: nothingOut,
}

// intInCodec: commands taking *int (PIOCKILL, PIOCNICE, ...).
var intInCodec = ioctlCodec{
	encodeArg: func(arg interface{}) ([]byte, error) {
		v, ok := arg.(*int)
		if !ok || v == nil {
			return nil, errBadArg
		}
		m := &buf{}
		m.putU32(uint32(*v))
		return m.b, nil
	},
	decodeArg: func(b []byte) (interface{}, error) {
		m := &buf{b: b}
		v := int(int32(m.u32()))
		if m.err != nil {
			return nil, m.err
		}
		return &v, nil
	},
	appendResult: resultNothing,
	decodeResult: nothingOut,
}

// intOutCodec: commands filling *int (PIOCNMAP, PIOCMAXSIG).
var intOutCodec = ioctlCodec{
	encodeArg: nothingIn,
	decodeArg: func(b []byte) (interface{}, error) {
		v := 0
		return &v, nil
	},
	appendResult: func(dst []byte, arg interface{}) ([]byte, error) {
		v, ok := arg.(*int)
		if !ok {
			return dst, errBadArg
		}
		m := &buf{b: dst}
		m.putU32(uint32(*v))
		return m.b, nil
	},
	decodeResult: func(b []byte, arg interface{}) error {
		v, ok := arg.(*int)
		if !ok || v == nil {
			return errBadArg
		}
		m := &buf{b: b}
		*v = int(int32(m.u32()))
		return m.err
	},
}

// statusOutCodec: commands filling *kernel.ProcStatus, where a nil argument
// is permitted (PIOCSTOP, PIOCWSTOP).
var statusOutCodec = ioctlCodec{
	encodeArg: nothingIn,
	decodeArg: func(b []byte) (interface{}, error) {
		return &kernel.ProcStatus{}, nil
	},
	appendResult: func(dst []byte, arg interface{}) ([]byte, error) {
		st, ok := arg.(*kernel.ProcStatus)
		if !ok {
			return dst, errBadArg
		}
		return append(dst, procfs2.EncodeStatus(*st)...), nil
	},
	decodeResult: func(b []byte, arg interface{}) error {
		if arg == nil {
			return nil
		}
		st, ok := arg.(*kernel.ProcStatus)
		if !ok {
			return errBadArg
		}
		if st == nil {
			return nil
		}
		got, err := procfs2.DecodeStatus(b)
		if err != nil {
			return err
		}
		*st = got
		return nil
	},
}

// sigSetInCodec / sigSetOutCodec.
var sigSetInCodec = ioctlCodec{
	encodeArg: func(arg interface{}) ([]byte, error) {
		s, ok := arg.(*types.SigSet)
		if !ok || s == nil {
			return nil, errBadArg
		}
		m := &buf{}
		m.putU64(s[0])
		m.putU64(s[1])
		return m.b, nil
	},
	decodeArg: func(b []byte) (interface{}, error) {
		m := &buf{b: b}
		s := types.SigSet{m.u64(), m.u64()}
		if m.err != nil {
			return nil, m.err
		}
		return &s, nil
	},
	appendResult: resultNothing,
	decodeResult: nothingOut,
}

var sigSetOutCodec = ioctlCodec{
	encodeArg: nothingIn,
	decodeArg: func(b []byte) (interface{}, error) { return &types.SigSet{}, nil },
	appendResult: func(dst []byte, arg interface{}) ([]byte, error) {
		s, ok := arg.(*types.SigSet)
		if !ok {
			return dst, errBadArg
		}
		m := &buf{b: dst}
		m.putU64(s[0])
		m.putU64(s[1])
		return m.b, nil
	},
	decodeResult: func(b []byte, arg interface{}) error {
		s, ok := arg.(*types.SigSet)
		if !ok || s == nil {
			return errBadArg
		}
		m := &buf{b: b}
		*s = types.SigSet{m.u64(), m.u64()}
		return m.err
	},
}

var fltSetInCodec = ioctlCodec{
	encodeArg: func(arg interface{}) ([]byte, error) {
		s, ok := arg.(*types.FltSet)
		if !ok || s == nil {
			return nil, errBadArg
		}
		m := &buf{}
		m.putU64(s[0])
		m.putU64(s[1])
		return m.b, nil
	},
	decodeArg: func(b []byte) (interface{}, error) {
		m := &buf{b: b}
		s := types.FltSet{m.u64(), m.u64()}
		if m.err != nil {
			return nil, m.err
		}
		return &s, nil
	},
	appendResult: resultNothing,
	decodeResult: nothingOut,
}

var sysSetInCodec = ioctlCodec{
	encodeArg: func(arg interface{}) ([]byte, error) {
		s, ok := arg.(*types.SysSet)
		if !ok || s == nil {
			return nil, errBadArg
		}
		m := &buf{}
		for _, w := range s {
			m.putU64(w)
		}
		return m.b, nil
	},
	decodeArg: func(b []byte) (interface{}, error) {
		m := &buf{b: b}
		var s types.SysSet
		for i := range s {
			s[i] = m.u64()
		}
		if m.err != nil {
			return nil, m.err
		}
		return &s, nil
	},
	appendResult: resultNothing,
	decodeResult: nothingOut,
}

func appendRegs(dst []byte, r *vcpu.Regs) []byte {
	m := &buf{b: dst}
	for _, v := range r.R {
		m.putU32(v)
	}
	m.putU32(r.PC)
	m.putU32(r.SP)
	m.putU32(r.PSW)
	return m.b
}

func decodeRegs(b []byte) (vcpu.Regs, error) {
	m := &buf{b: b}
	var r vcpu.Regs
	for i := range r.R {
		r.R[i] = m.u32()
	}
	r.PC = m.u32()
	r.SP = m.u32()
	r.PSW = m.u32()
	return r, m.err
}

var regsInCodec = ioctlCodec{
	encodeArg: func(arg interface{}) ([]byte, error) {
		r, ok := arg.(*vcpu.Regs)
		if !ok || r == nil {
			return nil, errBadArg
		}
		return appendRegs(nil, r), nil
	},
	decodeArg: func(b []byte) (interface{}, error) {
		r, err := decodeRegs(b)
		if err != nil {
			return nil, err
		}
		return &r, nil
	},
	appendResult: resultNothing,
	decodeResult: nothingOut,
}

var regsOutCodec = ioctlCodec{
	encodeArg: nothingIn,
	decodeArg: func(b []byte) (interface{}, error) { return &vcpu.Regs{}, nil },
	appendResult: func(dst []byte, arg interface{}) ([]byte, error) {
		r, ok := arg.(*vcpu.Regs)
		if !ok {
			return dst, errBadArg
		}
		return appendRegs(dst, r), nil
	},
	decodeResult: func(b []byte, arg interface{}) error {
		r, ok := arg.(*vcpu.Regs)
		if !ok || r == nil {
			return errBadArg
		}
		got, err := decodeRegs(b)
		if err != nil {
			return err
		}
		*r = got
		return nil
	},
}

var runCodec = ioctlCodec{
	encodeArg: func(arg interface{}) ([]byte, error) {
		m := &buf{}
		var f kernel.RunFlags
		if arg != nil {
			rf, ok := arg.(*kernel.RunFlags)
			if !ok {
				return nil, errBadArg
			}
			if rf != nil {
				f = *rf
			}
		}
		var bits uint32
		set := func(cond bool, bit uint32) {
			if cond {
				bits |= bit
			}
		}
		set(f.ClearSig, 1)
		set(f.ClearFault, 2)
		set(f.Abort, 4)
		set(f.Step, 8)
		set(f.Stop, 16)
		set(f.SetPC, 32)
		m.putU32(bits)
		m.putU32(f.PC)
		m.putU32(uint32(f.SetSig))
		return m.b, nil
	},
	decodeArg: func(b []byte) (interface{}, error) {
		m := &buf{b: b}
		bits := m.u32()
		pc := m.u32()
		setSig := int(m.u32())
		if m.err != nil {
			return nil, m.err
		}
		return &kernel.RunFlags{
			ClearSig:   bits&1 != 0,
			ClearFault: bits&2 != 0,
			Abort:      bits&4 != 0,
			Step:       bits&8 != 0,
			Stop:       bits&16 != 0,
			SetPC:      bits&32 != 0,
			PC:         pc,
			SetSig:     setSig,
		}, nil
	},
	appendResult: resultNothing,
	decodeResult: nothingOut,
}

var psinfoCodec = ioctlCodec{
	encodeArg: nothingIn,
	decodeArg: func(b []byte) (interface{}, error) { return &kernel.PSInfo{}, nil },
	appendResult: func(dst []byte, arg interface{}) ([]byte, error) {
		info, ok := arg.(*kernel.PSInfo)
		if !ok {
			return dst, errBadArg
		}
		return append(dst, procfs2.EncodePSInfo(*info)...), nil
	},
	decodeResult: func(b []byte, arg interface{}) error {
		info, ok := arg.(*kernel.PSInfo)
		if !ok || info == nil {
			return errBadArg
		}
		got, err := procfs2.DecodePSInfo(b)
		if err != nil {
			return err
		}
		*info = got
		return nil
	},
}

var credCodec = ioctlCodec{
	encodeArg: nothingIn,
	decodeArg: func(b []byte) (interface{}, error) { return &types.Cred{}, nil },
	appendResult: func(dst []byte, arg interface{}) ([]byte, error) {
		c, ok := arg.(*types.Cred)
		if !ok {
			return dst, errBadArg
		}
		return append(dst, procfs2.EncodeCred(*c)...), nil
	},
	decodeResult: func(b []byte, arg interface{}) error {
		c, ok := arg.(*types.Cred)
		if !ok || c == nil {
			return errBadArg
		}
		got, err := procfs2.DecodeCred(b)
		if err != nil {
			return err
		}
		*c = got
		return nil
	},
}

var mapCodec = ioctlCodec{
	encodeArg: nothingIn,
	decodeArg: func(b []byte) (interface{}, error) { return &[]procfs.PrMap{}, nil },
	appendResult: func(dst []byte, arg interface{}) ([]byte, error) {
		maps, ok := arg.(*[]procfs.PrMap)
		if !ok {
			return dst, errBadArg
		}
		entries := make([]procfs2.MapEntry, len(*maps))
		for i, pm := range *maps {
			entries[i] = procfs2.MapEntry{
				Vaddr: pm.Vaddr, Size: pm.Size, Off: pm.Off,
				Prot: uint32(pm.Prot), Shared: pm.Shared,
				Kind: int32(pm.Kind), Name: pm.Name,
			}
		}
		return append(dst, procfs2.EncodeMap(entries)...), nil
	},
	decodeResult: func(b []byte, arg interface{}) error {
		maps, ok := arg.(*[]procfs.PrMap)
		if !ok || maps == nil {
			return errBadArg
		}
		entries, err := procfs2.DecodeMap(b)
		if err != nil {
			return err
		}
		out := make([]procfs.PrMap, len(entries))
		for i, e := range entries {
			out[i] = procfs.PrMap{
				Vaddr: e.Vaddr, Size: e.Size, Off: e.Off,
				Prot: mem.Prot(e.Prot), Shared: e.Shared,
				Kind: mem.SegKind(e.Kind), Name: e.Name,
			}
		}
		*maps = out
		return nil
	},
}

var usageCodec = ioctlCodec{
	encodeArg: nothingIn,
	decodeArg: func(b []byte) (interface{}, error) { return &procfs.PrUsage{}, nil },
	appendResult: func(dst []byte, arg interface{}) ([]byte, error) {
		u, ok := arg.(*procfs.PrUsage)
		if !ok {
			return dst, errBadArg
		}
		return append(dst, procfs2.EncodeUsage(*u)...), nil
	},
	decodeResult: func(b []byte, arg interface{}) error {
		u, ok := arg.(*procfs.PrUsage)
		if !ok || u == nil {
			return errBadArg
		}
		got, err := procfs2.DecodeUsage(b)
		if err != nil {
			return err
		}
		*u = got
		return nil
	},
}

var watchInCodec = ioctlCodec{
	encodeArg: func(arg interface{}) ([]byte, error) {
		w, ok := arg.(*procfs.PrWatch)
		if !ok || w == nil {
			return nil, errBadArg
		}
		m := &buf{}
		m.putU32(w.Vaddr)
		m.putU32(w.Size)
		m.putU32(uint32(w.Mode))
		return m.b, nil
	},
	decodeArg: func(b []byte) (interface{}, error) {
		m := &buf{b: b}
		w := procfs.PrWatch{Vaddr: m.u32(), Size: m.u32(), Mode: mem.Prot(m.u32())}
		if m.err != nil {
			return nil, m.err
		}
		return &w, nil
	},
	appendResult: resultNothing,
	decodeResult: nothingOut,
}

// snapArgs recycles the server's PIOCSNAP arguments. The record table of a
// whole-table snapshot is the largest thing a request allocates (about
// 230 bytes a process), and the server's workers may dispatch concurrently,
// so the arguments are pooled rather than kept per server. A pooled
// argument's Procs is never nil, so a decoded argument looks the same
// whether or not it was recycled.
var snapArgs = sync.Pool{New: func() any { return &procfs.PrSnap{Procs: []procfs.PrSnapRec{}} }}

// snapCodec carries PIOCSNAP: the filter and prior revision travel out, the
// whole record batch travels back in one frame — the round trip the batched
// ioctl exists to save multiplied across the table. The result is encoded
// straight onto the response frame and decoded straight into the caller's
// PrSnap.Procs, so the table is copied once per hop. The server decodes
// into a recycled PrSnap, whose record table keeps its capacity.
var snapCodec = ioctlCodec{
	encodeArg: func(arg interface{}) ([]byte, error) {
		sn, ok := arg.(*procfs.PrSnap)
		if !ok || sn == nil {
			return nil, errBadArg
		}
		m := &buf{}
		if sn.WithUsage {
			m.putU32(1)
		} else {
			m.putU32(0)
		}
		m.putU64(sn.Rev)
		m.putU32(uint32(len(sn.Pids)))
		for _, pid := range sn.Pids {
			m.putU32(uint32(pid))
		}
		return m.b, nil
	},
	decodeArg: func(b []byte) (interface{}, error) {
		m := &buf{b: b}
		withUsage, rev := m.u32() != 0, m.u64()
		n := int(m.u32())
		if m.err != nil {
			return nil, m.err
		}
		// The pid count is untrusted: one the remaining bytes cannot hold
		// is rejected before the filter is allocated.
		if n > (len(b)-m.off)/4 {
			return nil, errShort
		}
		sn := snapArgs.Get().(*procfs.PrSnap)
		*sn = procfs.PrSnap{WithUsage: withUsage, Rev: rev, Procs: sn.Procs[:0]}
		if n > 0 {
			sn.Pids = make([]int, n)
			for i := range sn.Pids {
				sn.Pids[i] = int(int32(m.u32()))
			}
		}
		return sn, nil
	},
	release: func(arg interface{}) { snapArgs.Put(arg) },
	appendResult: func(dst []byte, arg interface{}) ([]byte, error) {
		sn, ok := arg.(*procfs.PrSnap)
		if !ok || sn == nil {
			return dst, errBadArg
		}
		return procfs2.AppendSnap(dst, sn), nil
	},
	decodeResult: func(b []byte, arg interface{}) error {
		sn, ok := arg.(*procfs.PrSnap)
		if !ok || sn == nil {
			return errBadArg
		}
		return procfs2.DecodeSnapInto(b, sn)
	},
}

// ioctlCodecs is the registry: every remotable /proc ioctl, each with its
// bespoke marshalling. Commands without codecs (the deprecated pointer-
// returning PIOCGETPR, the descriptor-returning PIOCOPENM) cannot cross the
// network at all — another limitation read/write does not share.
var ioctlCodecs = map[int]ioctlCodec{
	procfs.PIOCSTATUS: statusOutCodec,
	procfs.PIOCSTOP:   statusOutCodec,
	procfs.PIOCWSTOP:  statusOutCodec,
	procfs.PIOCRUN:    runCodec,
	procfs.PIOCSTRACE: sigSetInCodec,
	procfs.PIOCGTRACE: sigSetOutCodec,
	procfs.PIOCSSIG:   intInCodec,
	procfs.PIOCKILL:   intInCodec,
	procfs.PIOCUNKILL: intInCodec,
	procfs.PIOCSHOLD:  sigSetInCodec,
	procfs.PIOCGHOLD:  sigSetOutCodec,
	procfs.PIOCMAXSIG: intOutCodec,
	procfs.PIOCSFAULT: fltSetInCodec,
	procfs.PIOCCFAULT: noArgCodec,
	procfs.PIOCSENTRY: sysSetInCodec,
	procfs.PIOCSEXIT:  sysSetInCodec,
	procfs.PIOCSFORK:  noArgCodec,
	procfs.PIOCRFORK:  noArgCodec,
	procfs.PIOCSRLC:   noArgCodec,
	procfs.PIOCRRLC:   noArgCodec,
	procfs.PIOCGREG:   regsOutCodec,
	procfs.PIOCSREG:   regsInCodec,
	procfs.PIOCNMAP:   intOutCodec,
	procfs.PIOCMAP:    mapCodec,
	procfs.PIOCCRED:   credCodec,
	procfs.PIOCPSINFO: psinfoCodec,
	procfs.PIOCNICE:   intInCodec,
	procfs.PIOCUSAGE:  usageCodec,
	procfs.PIOCSWATCH: watchInCodec,
	procfs.PIOCCWATCH: noArgCodec,
	procfs.PIOCSNAP:   snapCodec,
}
