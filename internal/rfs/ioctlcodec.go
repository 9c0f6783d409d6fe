package rfs

import (
	"errors"
	"sync"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/procfs"
	"repro/internal/procfs2"
	"repro/internal/wire"
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

// inCodec is the codec of a command whose operand, a *T, travels from
// client to server in the encoding enc and dec define.
func inCodec[T any](enc func(T) []byte, dec func([]byte) (T, error)) ioctlCodec {
	return ioctlCodec{
		encodeArg: func(arg interface{}) ([]byte, error) {
			v, ok := arg.(*T)
			if !ok || v == nil {
				return nil, errBadArg
			}
			return enc(*v), nil
		},
		decodeArg: func(b []byte) (interface{}, error) {
			v, err := dec(b)
			if err != nil {
				return nil, err
			}
			return &v, nil
		},
		appendResult: resultNothing,
		decodeResult: nothingOut,
	}
}

// outCodec is the codec of a command that fills a *T on the server and
// carries it back into the caller's *T, which keeps its old value unless
// the whole result decodes.
func outCodec[T any](enc func(T) []byte, dec func([]byte) (T, error)) ioctlCodec {
	return ioctlCodec{
		encodeArg: nothingIn,
		decodeArg: func(b []byte) (interface{}, error) { return new(T), nil },
		appendResult: func(dst []byte, arg interface{}) ([]byte, error) {
			v, ok := arg.(*T)
			if !ok {
				return dst, errBadArg
			}
			return append(dst, enc(*v)...), nil
		},
		decodeResult: func(b []byte, arg interface{}) error {
			v, ok := arg.(*T)
			if !ok || v == nil {
				return errBadArg
			}
			got, err := dec(b)
			if err != nil {
				return err
			}
			*v = got
			return nil
		},
	}
}

// encoder and decoder turn a cursor-level write or read of a T into a
// whole-operand encoder or decoder.
func encoder[T any](put func(*wire.Cursor, T)) func(T) []byte {
	return func(v T) []byte {
		var m wire.Cursor
		put(&m, v)
		return m.B
	}
}

func decoder[T any](get func(*wire.Cursor) T) func([]byte) (T, error) {
	return func(b []byte) (T, error) {
		m := wire.Cursor{B: b}
		v := get(&m)
		return v, m.Err
	}
}

func putInt(m *wire.Cursor, v int) { m.PutU32(uint32(v)) }
func getInt(m *wire.Cursor) int    { return int(m.I32()) }

// runFlags lists the PIOCRUN flags in wire order: bit i of the flags word
// carries the i-th.
func runFlags(f *kernel.RunFlags) [6]*bool {
	return [...]*bool{&f.ClearSig, &f.ClearFault, &f.Abort, &f.Step, &f.Stop, &f.SetPC}
}

func putRun(m *wire.Cursor, f kernel.RunFlags) {
	var bits uint32
	for i, set := range runFlags(&f) {
		if *set {
			bits |= 1 << i
		}
	}
	m.PutU32(bits)
	m.PutU32(f.PC)
	m.PutU32(uint32(f.SetSig))
}

func getRun(m *wire.Cursor) kernel.RunFlags {
	var f kernel.RunFlags
	bits := m.U32()
	for i, set := range runFlags(&f) {
		*set = bits&(1<<i) != 0
	}
	f.PC = m.U32()
	f.SetSig = int(m.U32())
	return f
}

func putWatch(m *wire.Cursor, w procfs.PrWatch) {
	m.PutU32(w.Vaddr)
	m.PutU32(w.Size)
	m.PutU32(uint32(w.Mode))
}

func getWatch(m *wire.Cursor) procfs.PrWatch {
	return procfs.PrWatch{Vaddr: m.U32(), Size: m.U32(), Mode: mem.Prot(m.U32())}
}

var (
	intInCodec     = inCodec(encoder(putInt), decoder(getInt))                        // PIOCKILL, PIOCNICE, ...
	intOutCodec    = outCodec(encoder(putInt), decoder(getInt))                       // PIOCNMAP, PIOCMAXSIG
	sigSetInCodec  = inCodec(encoder(procfs2.PutSigSet), decoder(procfs2.GetSigSet))  // PIOCSTRACE, PIOCSHOLD
	sigSetOutCodec = outCodec(encoder(procfs2.PutSigSet), decoder(procfs2.GetSigSet)) // PIOCGTRACE, PIOCGHOLD
	fltSetInCodec  = inCodec(encoder(procfs2.PutFltSet), decoder(procfs2.GetFltSet))  // PIOCSFAULT
	sysSetInCodec  = inCodec(encoder(procfs2.PutSysSet), decoder(procfs2.GetSysSet))  // PIOCSENTRY, PIOCSEXIT
	regsInCodec    = inCodec(encoder(procfs2.PutRegs), decoder(procfs2.GetRegs))      // PIOCSREG
	regsOutCodec   = outCodec(encoder(procfs2.PutRegs), decoder(procfs2.GetRegs))     // PIOCGREG
	watchInCodec   = inCodec(encoder(putWatch), decoder(getWatch))                    // PIOCSWATCH
	psinfoCodec    = outCodec(procfs2.EncodePSInfo, procfs2.DecodePSInfo)
	credCodec      = outCodec(procfs2.EncodeCred, procfs2.DecodeCred)
	usageCodec     = outCodec(procfs2.EncodeUsage, procfs2.DecodeUsage)
)

// runCodec carries PIOCRUN, whose argument may be nil: no flags.
var runCodec = func() ioctlCodec {
	c := inCodec(encoder(putRun), decoder(getRun))
	encode := c.encodeArg
	c.encodeArg = func(arg interface{}) ([]byte, error) {
		if f, ok := arg.(*kernel.RunFlags); arg == nil || ok && f == nil {
			arg = &kernel.RunFlags{}
		}
		return encode(arg)
	}
	return c
}()

// statusOutCodec carries the commands filling a *kernel.ProcStatus, where
// a nil argument is permitted (PIOCSTOP, PIOCWSTOP).
var statusOutCodec = func() ioctlCodec {
	c := outCodec(procfs2.EncodeStatus, procfs2.DecodeStatus)
	decode := c.decodeResult
	c.decodeResult = func(b []byte, arg interface{}) error {
		if st, ok := arg.(*kernel.ProcStatus); arg == nil || ok && st == nil {
			return nil
		}
		return decode(b, arg)
	}
	return c
}()

// mapCodec carries PIOCMAP in the map file's encoding.
var mapCodec = outCodec(encodeMap, decodeMap)

func encodeMap(maps []procfs.PrMap) []byte {
	entries := make([]procfs2.MapEntry, len(maps))
	for i, pm := range maps {
		entries[i] = procfs2.MapEntry{
			Vaddr: pm.Vaddr, Size: pm.Size, Off: pm.Off,
			Prot: uint32(pm.Prot), Shared: pm.Shared,
			Kind: int32(pm.Kind), Name: pm.Name,
		}
	}
	return procfs2.EncodeMap(entries)
}

func decodeMap(b []byte) ([]procfs.PrMap, error) {
	entries, err := procfs2.DecodeMap(b)
	if err != nil {
		return nil, err
	}
	out := make([]procfs.PrMap, len(entries))
	for i, e := range entries {
		out[i] = procfs.PrMap{
			Vaddr: e.Vaddr, Size: e.Size, Off: e.Off,
			Prot: mem.Prot(e.Prot), Shared: e.Shared,
			Kind: mem.SegKind(e.Kind), Name: e.Name,
		}
	}
	return out, nil
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
		m := &wire.Cursor{}
		if sn.WithUsage {
			m.PutU32(1)
		} else {
			m.PutU32(0)
		}
		m.PutU64(sn.Rev)
		m.PutU32(uint32(len(sn.Pids)))
		for _, pid := range sn.Pids {
			m.PutU32(uint32(pid))
		}
		return m.B, nil
	},
	decodeArg: func(b []byte) (interface{}, error) {
		m := &wire.Cursor{B: b}
		withUsage, rev := m.U32() != 0, m.U64()
		n := m.Count(4)
		if m.Err != nil {
			return nil, m.Err
		}
		sn := snapArgs.Get().(*procfs.PrSnap)
		*sn = procfs.PrSnap{WithUsage: withUsage, Rev: rev, Procs: sn.Procs[:0]}
		if n > 0 {
			sn.Pids = make([]int, n)
			for i := range sn.Pids {
				sn.Pids[i] = int(m.I32())
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
