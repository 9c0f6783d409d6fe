// Package ktrace is the kernel event-tracing subsystem: a fixed-capacity
// ring buffer of trace events written from the kernel's natural control
// points — the stop points of the paper's Figure 3 (system call entry and
// exit, machine faults, signal receipt) plus the bookkeeping around them
// (signals posted, LWP state transitions, process creation and death,
// scheduling ticks).
//
// Where the /proc stop machinery lets a controlling process *stop* a target
// on those events, ktrace lets it *record* them: a cheap, complete event
// history that tools like truss can read back instead of re-deriving it by
// stop-and-poll, and that tests can compare across runs to verify the
// simulation's determinism.
//
// The package is a leaf: it knows nothing of the kernel. The kernel owns
// the rings (one per traced process, plus an optional kernel-wide ring) and
// appends events; the process file system serves the encoded stream as the
// per-process trace file. Events have a fixed-size big-endian wire encoding
// so the file reads like any other proc file — locally, and remotely over
// rfs with no per-operation marshalling knowledge.
package ktrace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Kind classifies one trace event.
type Kind uint32

// Event kinds.
const (
	KNone       Kind = iota
	KSysEntry        // system call entry: What=sysnum, Args=arguments
	KSysExit         // system call exit: What=sysnum, A=return value, B=errno
	KFault           // machine fault: What=fault number, A=faulting address
	KSigPost         // signal generated for the process: What=signal
	KSigDeliver      // signal acted on by psig(): What=signal, A=handler
	KLWPState        // LWP state transition: What=new state, A=old state, B=stop why, Args[0]=stop what
	KFork            // process forked a child: What=child pid
	KExit            // process exited: What=wait(2) status encoding
	KSchedTick       // scheduling quantum expired (involuntary context switch)
	KArgStr          // inline string argument of the preceding KSysEntry: see EncodeArgStr
	kindMax
)

var kindNames = [...]string{"none", "sysentry", "sysexit", "fault",
	"sigpost", "sigdeliver", "lwpstate", "fork", "exit", "schedtick", "argstr"}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind#%d", uint32(k))
}

// Event is one kernel trace event. The interpretation of What, A, B and
// Args depends on Kind; unused fields are zero.
type Event struct {
	Seq  uint64 // position in this ring's stream, stamped at append
	Time int64  // simulated clock at emission
	Pid  int32
	LWP  int32
	Kind Kind
	What int32
	A    uint32
	B    uint32
	Args [6]uint32 // system call arguments (KSysEntry)
}

// EventSize is the fixed wire size of one encoded event.
const EventSize = 64

// AppendEncode appends the 64-byte big-endian encoding of e to b.
func AppendEncode(b []byte, e Event) []byte {
	b = binary.BigEndian.AppendUint64(b, e.Seq)
	b = binary.BigEndian.AppendUint64(b, uint64(e.Time))
	b = binary.BigEndian.AppendUint32(b, uint32(e.Pid))
	b = binary.BigEndian.AppendUint32(b, uint32(e.LWP))
	b = binary.BigEndian.AppendUint32(b, uint32(e.Kind))
	b = binary.BigEndian.AppendUint32(b, uint32(e.What))
	b = binary.BigEndian.AppendUint32(b, e.A)
	b = binary.BigEndian.AppendUint32(b, e.B)
	for _, a := range e.Args {
		b = binary.BigEndian.AppendUint32(b, a)
	}
	return b
}

// ArgStrMax is the chunk payload capacity of one KArgStr event: the Args
// words hold the raw bytes, packed big-endian so the wire encoding reads as
// the string itself. Longer strings span consecutive KArgStr events.
const ArgStrMax = 24

// EncodeArgStr fills in the payload fields of a KArgStr event with the chunk
// of s starting at off: What is the argument index (set by the caller), B is
// the chunk's byte offset within the string, the low byte of A the chunk
// length, and bit 8 of A marks the chunk that completes the string. Strings
// like pathnames are captured inline at system call entry because the
// address space they point into may be gone (exit, exec) by the time a tool
// drains the event.
func EncodeArgStr(e *Event, s string, off int) {
	chunk := s[off:]
	complete := uint32(1)
	if len(chunk) > ArgStrMax {
		chunk = chunk[:ArgStrMax]
		complete = 0
	}
	e.B = uint32(off)
	e.A = complete<<8 | uint32(len(chunk))
	e.Args = [6]uint32{}
	for i := 0; i < len(chunk); i++ {
		e.Args[i/4] |= uint32(chunk[i]) << uint(24-8*(i%4))
	}
}

// DecodeArgStr extracts one KArgStr event's chunk, the chunk's offset within
// the string, and whether the string is complete with it.
func DecodeArgStr(e Event) (chunk string, off int, complete bool) {
	n := int(e.A & 0xFF)
	if n > ArgStrMax {
		n = ArgStrMax
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(e.Args[i/4] >> uint(24-8*(i%4)))
	}
	return string(b), int(e.B), e.A&(1<<8) != 0
}

// errTruncated reports a buffer that does not hold a whole event.
var errTruncated = errors.New("ktrace: truncated event")

// DecodeEvent decodes one event from the front of b.
func DecodeEvent(b []byte) (Event, error) {
	if len(b) < EventSize {
		return Event{}, errTruncated
	}
	var e Event
	e.Seq = binary.BigEndian.Uint64(b)
	e.Time = int64(binary.BigEndian.Uint64(b[8:]))
	e.Pid = int32(binary.BigEndian.Uint32(b[16:]))
	e.LWP = int32(binary.BigEndian.Uint32(b[20:]))
	e.Kind = Kind(binary.BigEndian.Uint32(b[24:]))
	e.What = int32(binary.BigEndian.Uint32(b[28:]))
	e.A = binary.BigEndian.Uint32(b[32:])
	e.B = binary.BigEndian.Uint32(b[36:])
	for i := range e.Args {
		e.Args[i] = binary.BigEndian.Uint32(b[40+4*i:])
	}
	if e.Kind >= kindMax {
		return Event{}, fmt.Errorf("ktrace: unknown event kind %d", uint32(e.Kind))
	}
	return e, nil
}

// Decode decodes a whole stream of events. A trailing partial event is an
// error: the wire format is a multiple of EventSize by construction.
func Decode(b []byte) ([]Event, error) {
	if len(b)%EventSize != 0 {
		return nil, errTruncated
	}
	out := make([]Event, 0, len(b)/EventSize)
	for len(b) > 0 {
		e, err := DecodeEvent(b)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		b = b[EventSize:]
	}
	return out, nil
}

// Encode encodes a slice of events.
func Encode(events []Event) []byte {
	b := make([]byte, 0, len(events)*EventSize)
	for _, e := range events {
		b = AppendEncode(b, e)
	}
	return b
}

// ErrDataLoss is returned by Ring.ReadAt for offsets whose events have been
// overwritten: the reader fell behind the drop policy.
var ErrDataLoss = errors.New("ktrace: trace data at this offset has been overwritten")

// Ring is a fixed-capacity ring buffer of events. When full, the oldest
// event is overwritten (and counted as dropped) — a reader that keeps up
// sees a complete stream; one that falls behind gets ErrDataLoss for the
// overwritten region rather than silently skewed data. Storage grows
// lazily, so a large capacity costs nothing until events arrive.
type Ring struct {
	cap     int
	buf     []Event // circular once len(buf) == cap
	start   int     // index of the oldest event when the buffer has wrapped
	next    uint64  // sequence number of the next event appended
	dropped uint64  // events overwritten by the drop policy
}

// DefaultCap is the default ring capacity (in events) when tracing is
// enabled without an explicit size.
const DefaultCap = 1 << 16

// maxCap bounds user-requested capacities (keeps a hostile ctl write from
// asking for an absurd allocation ceiling).
const maxCap = 1 << 22

// NewRing creates a ring with the given capacity; cap <= 0 selects
// DefaultCap, and capacities above the sanity maximum are clamped.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	if capacity > maxCap {
		capacity = maxCap
	}
	return &Ring{cap: capacity}
}

// Cap returns the ring capacity in events.
func (r *Ring) Cap() int { return r.cap }

// Len returns the number of events currently held.
func (r *Ring) Len() int { return len(r.buf) }

// NextSeq returns the sequence number the next appended event will get;
// the stream so far is [FirstSeq, NextSeq).
func (r *Ring) NextSeq() uint64 { return r.next }

// FirstSeq returns the sequence number of the oldest retained event.
func (r *Ring) FirstSeq() uint64 { return r.next - uint64(len(r.buf)) }

// Dropped returns how many events the drop policy has overwritten.
func (r *Ring) Dropped() uint64 { return r.dropped }

// Append stamps e with the next sequence number and stores it, overwriting
// the oldest event if the ring is full.
func (r *Ring) Append(e *Event) {
	e.Seq = r.next
	r.next++
	if len(r.buf) < r.cap {
		if r.buf == nil {
			// The deferred allocation, in full: growing incrementally would
			// recopy the buffer at every doubling on the emit hot path.
			r.buf = make([]Event, 0, r.cap)
		}
		r.buf = append(r.buf, *e)
		return
	}
	r.buf[r.start] = *e
	r.start++
	if r.start == len(r.buf) {
		r.start = 0
	}
	r.dropped++
}

// CheckSane verifies the ring's structural invariants: occupancy within
// capacity, a start index inside the buffer, a sequence counter consistent
// with occupancy, and strictly consecutive sequence numbers oldest-to-newest.
// The fault-storm harness calls it after every injected fault; nothing in
// the fault paths should be able to corrupt the trace of its own fallout.
func (r *Ring) CheckSane() error {
	if r.cap <= 0 {
		return fmt.Errorf("ktrace: ring capacity %d", r.cap)
	}
	if len(r.buf) > r.cap {
		return fmt.Errorf("ktrace: ring holds %d events over capacity %d", len(r.buf), r.cap)
	}
	if r.start != 0 && r.start >= len(r.buf) {
		return fmt.Errorf("ktrace: ring start %d outside %d retained events", r.start, len(r.buf))
	}
	if r.next < uint64(len(r.buf)) {
		return fmt.Errorf("ktrace: ring sequence %d below occupancy %d", r.next, len(r.buf))
	}
	if len(r.buf) == r.cap && r.dropped == 0 && r.next > uint64(len(r.buf)) {
		return fmt.Errorf("ktrace: full ring advanced %d events without counting drops",
			r.next-uint64(len(r.buf)))
	}
	want := r.FirstSeq()
	for i := 0; i < len(r.buf); i++ {
		if got := r.at(i).Seq; got != want {
			return fmt.Errorf("ktrace: event %d has seq %d, want %d", i, got, want)
		}
		want++
	}
	return nil
}

// at returns the i-th oldest retained event.
func (r *Ring) at(i int) Event {
	j := r.start + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return r.buf[j]
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	out := make([]Event, len(r.buf))
	for i := range out {
		out[i] = r.at(i)
	}
	return out
}

// Clone returns an independent deep copy of the ring: same capacity,
// retained events, sequence numbering and drop count. Whole-kernel
// checkpoints use it to freeze a trace stream without aliasing the live
// buffer.
func (r *Ring) Clone() *Ring {
	c := &Ring{cap: r.cap, start: r.start, next: r.next, dropped: r.dropped}
	if r.buf != nil {
		c.buf = make([]Event, len(r.buf), cap(r.buf))
		copy(c.buf, r.buf)
	}
	return c
}

// Resize changes the capacity, keeping the most recent events that fit.
// The sequence numbering and dropped count are preserved; events shed by a
// shrink count as dropped.
func (r *Ring) Resize(capacity int) {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	if capacity > maxCap {
		capacity = maxCap
	}
	evs := r.Events()
	if len(evs) > capacity {
		r.dropped += uint64(len(evs) - capacity)
		evs = evs[len(evs)-capacity:]
	}
	r.cap = capacity
	r.buf = make([]Event, len(evs), capacity)
	copy(r.buf, evs)
	r.start = 0
}

// ReadAt serves the encoded stream as a file: event with sequence s
// occupies bytes [s*EventSize, (s+1)*EventSize). Reads past the retained
// window return io.EOF (nothing there *yet* — callers poll and retry);
// reads before it return ErrDataLoss.
func (r *Ring) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, ErrDataLoss
	}
	es := int64(EventSize)
	first, next := int64(r.FirstSeq()), int64(r.NextSeq())
	if off < first*es {
		return 0, ErrDataLoss
	}
	if off >= next*es {
		return 0, io.EOF
	}
	n := 0
	seq := off / es
	skip := int(off % es)
	var scratch []byte
	for seq < next && n < len(p) {
		scratch = AppendEncode(scratch[:0], r.at(int(seq-first)))
		n += copy(p[n:], scratch[skip:])
		skip = 0
		seq++
	}
	return n, nil
}
