// Package replay is the record/replay subsystem: it captures one
// deterministic run of a simulated system — the boot configuration plus the
// complete stream of nondeterministic inputs (host-side installs, spawns,
// fault-plan arms, /procx control writes, RFS requests), keyed by the step
// ordinal at which each arrived — into a self-describing artifact, and
// reconstructs a bit-identical run from it. The kernel itself is
// deterministic at NCPU=1; everything that is not the kernel enters through
// a narrow set of host operations, and those are exactly what the artifact
// records.
//
// Replays verify themselves as they go: every trace event the re-execution
// emits is compared against the recorded stream, so a divergence is caught
// at the emitting step, not at the end. Whole-kernel checkpoints taken every
// K steps during replay make arbitrary rewinds cheap — restore the nearest
// checkpoint at or before the target and re-execute forward — which is what
// the time-travel commands in cmd/dbg are built on.
package replay

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"repro/internal/ktrace"
	"repro/internal/types"
	"repro/internal/wire"
)

// Magic opens every artifact file.
const Magic = "REPROREC"

// Version is the artifact format version this package writes. Readers
// reject any other major version outright: a replay against a
// misinterpreted input stream would "diverge" for codec reasons, which is
// worse than an error.
const Version = 1

// OpKind classifies one recorded host operation.
type OpKind uint8

// The host-operation vocabulary. Everything a driving program can do to a
// recorded system goes through one of these.
const (
	OpInstall    OpKind = 1 // assemble Data (source) and install at Path
	OpInstallBSL OpKind = 2 // compile Data (bsl source) and install at Path
	OpWriteFile  OpKind = 3 // write Data at Path verbatim
	OpSpawn      OpKind = 4 // spawn Path with Args under Cred; Pid is the recorded result
	OpFaults     OpKind = 5 // apply Data as a fault-plan command script
	OpCtl        OpKind = 6 // write Data to /procx/<Pid>/ctl as root (open-act-close)
	OpRFS        OpKind = 7 // serve raw request Data; Resp is the recorded response
)

var opNames = map[OpKind]string{
	OpInstall: "install", OpInstallBSL: "installbsl", OpWriteFile: "writefile",
	OpSpawn: "spawn", OpFaults: "faults", OpCtl: "ctl", OpRFS: "rfs",
}

// String names the kind.
func (k OpKind) String() string {
	if s, ok := opNames[k]; ok {
		return s
	}
	return fmt.Sprintf("op#%d", uint8(k))
}

// Op is one recorded host operation. Step is the number of completed
// scheduler passes when the operation ran; replay applies it at the same
// ordinal, before the pass that follows it. Unused fields are zero.
type Op struct {
	Step uint64
	Kind OpKind

	Path string
	Data []byte
	Resp []byte // OpRFS: the recorded response
	Args []string
	Mode uint16
	UID  int
	GID  int
	Cred types.Cred
	Pid  int // OpSpawn: recorded result; OpCtl: target
}

// Artifact is one recorded run: the boot configuration, the ordered host
// operations, the full trace stream the run emitted (with, per event, the
// step ordinal during which it fired), and the final counters and process
// table the replayer verifies against.
type Artifact struct {
	PageSize   int
	Quantum    int
	KTCap      int // kernel-wide trace ring capacity
	NoInit     bool
	StartClock int64  // simulated clock when recording began
	Steps      uint64 // total scheduler passes recorded

	Ops     []Op
	Events  []ktrace.Event
	EvSteps []uint64 // per-event: completed passes when it fired

	Stats ktrace.Stats // final tracing counters
	Table []byte       // final process-table dump (EncodeTable)
}

// Section tags. Unknown tags are skipped on read, so later versions can add
// sections without breaking this reader.
const (
	secHeader = 1
	secOps    = 2
	secEvents = 3
	secFinal  = 4
)

// Codec errors. ErrTruncated reports a truncated artifact, or a count its
// bytes cannot hold; it is the codec's wire.ErrShort.
var (
	ErrBadMagic  = errors.New("replay: not a replay artifact (bad magic)")
	ErrTruncated = wire.ErrShort
)

// Marshal serializes the artifact.
func (a *Artifact) Marshal() []byte {
	w := &wire.Cursor{}
	w.B = append(w.B, Magic...)
	w.PutU32(Version)

	section(w, secHeader, func(w *wire.Cursor) {
		w.PutU32(uint32(a.PageSize))
		w.PutU32(uint32(a.Quantum))
		w.PutU32(uint32(a.KTCap))
		putBool(w, a.NoInit)
		w.PutU64(uint64(a.StartClock))
		w.PutU64(a.Steps)
	})
	section(w, secOps, func(w *wire.Cursor) {
		w.PutU32(uint32(len(a.Ops)))
		for i := range a.Ops {
			op := &a.Ops[i]
			w.PutU64(op.Step)
			w.PutU8(uint8(op.Kind))
			w.PutStr(op.Path)
			w.PutBytes(op.Data)
			w.PutBytes(op.Resp)
			w.PutU32(uint32(len(op.Args)))
			for _, s := range op.Args {
				w.PutStr(s)
			}
			w.PutU16(op.Mode)
			w.PutU32(uint32(op.UID))
			w.PutU32(uint32(op.GID))
			encodeCred(w, op.Cred)
			w.PutU32(uint32(op.Pid))
		}
	})
	section(w, secEvents, func(w *wire.Cursor) {
		w.PutU64(uint64(len(a.Events)))
		for i, e := range a.Events {
			w.PutU64(a.EvSteps[i])
			w.B = ktrace.AppendEncode(w.B, e)
		}
	})
	section(w, secFinal, func(w *wire.Cursor) {
		w.PutU64(a.Stats.Emitted)
		w.PutU64(a.Stats.Dropped)
		var nz uint32
		for _, c := range a.Stats.PerSys {
			if c != 0 {
				nz++
			}
		}
		w.PutU32(nz)
		for sys, c := range a.Stats.PerSys {
			if c != 0 {
				w.PutU32(uint32(sys))
				w.PutU64(c)
			}
		}
		w.PutBytes(a.Table)
	})
	return w.B
}

func putBool(w *wire.Cursor, v bool) {
	if v {
		w.PutU8(1)
	} else {
		w.PutU8(0)
	}
}

// section writes one tagged, length-prefixed section.
func section(w *wire.Cursor, tag uint32, body func(*wire.Cursor)) {
	w.PutU32(tag)
	lenAt := len(w.B)
	w.PutU64(0) // patched below
	body(w)
	binary.BigEndian.PutUint64(w.B[lenAt:], uint64(len(w.B)-lenAt-8))
}

// Minimum encoded sizes, for bounding untrusted counts: an op with empty
// strings, no args and no groups; a recorded event and its step; a
// histogram entry.
const (
	minOpSize = 8 + 1 + 3*4 + 4 + 2 + 2*4 + minCredSize + 4
	evRecSize = 8 + ktrace.EventSize
	histEnt   = 4 + 8
)

// Unmarshal parses an artifact, rejecting truncation, corruption and
// version skew with distinct errors.
func Unmarshal(b []byte) (*Artifact, error) {
	if len(b) < len(Magic)+4 {
		return nil, ErrTruncated
	}
	if string(b[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	r := &wire.Cursor{B: b, Off: len(Magic)}
	if v := r.U32(); v != Version {
		return nil, fmt.Errorf("replay: artifact version %d unsupported (this build reads version %d)", v, Version)
	}
	a := &Artifact{}
	var haveHeader, haveOps, haveEvents, haveFinal bool
	for r.Len() > 0 && r.Err == nil {
		tag := r.U32()
		n := r.U64()
		if r.Err != nil || n > uint64(r.Len()) {
			return nil, ErrTruncated
		}
		body := &wire.Cursor{B: r.Next(int(n))}
		switch tag {
		case secHeader:
			a.PageSize = int(body.I32())
			a.Quantum = int(body.I32())
			a.KTCap = int(body.I32())
			a.NoInit = body.U8() != 0
			a.StartClock = body.I64()
			a.Steps = body.U64()
			haveHeader = true
		case secOps:
			cnt := body.Count(minOpSize)
			for i := 0; i < cnt && body.Err == nil; i++ {
				var op Op
				op.Step = body.U64()
				op.Kind = OpKind(body.U8())
				op.Path = body.Str()
				op.Data = body.Bytes()
				op.Resp = body.Bytes()
				na := body.Count(4)
				for j := 0; j < na; j++ {
					op.Args = append(op.Args, body.Str())
				}
				op.Mode = body.U16()
				op.UID = int(body.I32())
				op.GID = int(body.I32())
				op.Cred = decodeCred(body)
				op.Pid = int(body.I32())
				if body.Err == nil {
					if _, ok := opNames[op.Kind]; !ok {
						return nil, fmt.Errorf("replay: corrupt artifact: unknown op kind %d", uint8(op.Kind))
					}
					a.Ops = append(a.Ops, op)
				}
			}
			haveOps = true
		case secEvents:
			// The count is a u64 whose high word no section can hold.
			if body.U32() != 0 {
				return nil, ErrTruncated
			}
			cnt := body.Count(evRecSize)
			for i := 0; i < cnt; i++ {
				step := body.U64()
				e, err := ktrace.DecodeEvent(body.Next(ktrace.EventSize))
				if err != nil {
					return nil, fmt.Errorf("replay: corrupt artifact: event %d: %v", i, err)
				}
				a.Events = append(a.Events, e)
				a.EvSteps = append(a.EvSteps, step)
			}
			haveEvents = true
		case secFinal:
			a.Stats.Emitted = body.U64()
			a.Stats.Dropped = body.U64()
			nz := body.Count(histEnt)
			for i := 0; i < nz; i++ {
				sys := body.U32()
				if sys >= ktrace.MaxSysHist {
					return nil, fmt.Errorf("replay: corrupt artifact: syscall %d out of histogram range", sys)
				}
				a.Stats.PerSys[sys] = body.U64()
			}
			a.Table = body.Bytes()
			haveFinal = true
		default:
			// An unknown section from a future minor revision: skip it.
		}
		if body.Err != nil {
			return nil, body.Err
		}
	}
	if r.Err != nil {
		return nil, r.Err
	}
	if !haveHeader || !haveOps || !haveEvents || !haveFinal {
		return nil, fmt.Errorf("replay: incomplete artifact (header=%v ops=%v events=%v final=%v)",
			haveHeader, haveOps, haveEvents, haveFinal)
	}
	if len(a.Events) != len(a.EvSteps) {
		return nil, errors.New("replay: corrupt artifact: event/step count mismatch")
	}
	return a, nil
}

// minCredSize is the encoded size of a credential with no groups.
const minCredSize = 6*4 + 4

func encodeCred(w *wire.Cursor, c types.Cred) {
	for _, id := range [...]int{c.RUID, c.EUID, c.SUID, c.RGID, c.EGID, c.SGID} {
		w.PutU32(uint32(id))
	}
	w.PutU32(uint32(len(c.Groups)))
	for _, g := range c.Groups {
		w.PutU32(uint32(g))
	}
}

func decodeCred(r *wire.Cursor) types.Cred {
	c := types.Cred{
		RUID: int(r.I32()), EUID: int(r.I32()), SUID: int(r.I32()),
		RGID: int(r.I32()), EGID: int(r.I32()), SGID: int(r.I32()),
	}
	n := r.Count(4)
	for i := 0; i < n; i++ {
		c.Groups = append(c.Groups, int(r.I32()))
	}
	return c
}

// WriteFile stores the artifact at path.
func (a *Artifact) WriteFile(path string) error {
	return os.WriteFile(path, a.Marshal(), 0o644)
}

// ReadFile loads an artifact from path.
func ReadFile(path string) (*Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Unmarshal(b)
}
