package replay

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/ktrace"
)

// Session is the time-travel debugging layer over a Replayer: breakpoints
// on trace-event classes, watchpoints on process memory, and motion in both
// directions. Reverse motion is the rr trick — the recorded event stream
// says where things happened, so "reverse-continue" is a scan backward
// through the recording followed by a Goto, which is itself a checkpoint
// restore plus forward re-execution.
type Session struct {
	R       *Replayer
	Breaks  []Breakpoint
	Watches []*Watch
}

// Breakpoint matches a class of trace events. Zero fields are wildcards
// except What, which uses -1 as the wildcard (0 is a real what-value).
type Breakpoint struct {
	Kind ktrace.Kind // event class to stop on
	Pid  int         // 0 = any process
	What int32       // -1 = any (signal/syscall/fault number otherwise)
}

// String renders the breakpoint for the dbg UI.
func (b Breakpoint) String() string {
	s := b.Kind.String()
	if b.What >= 0 {
		s += fmt.Sprintf(" what=%d", b.What)
	}
	if b.Pid != 0 {
		s += fmt.Sprintf(" pid=%d", b.Pid)
	}
	return s
}

// Matches reports whether the event trips the breakpoint.
func (b Breakpoint) Matches(e ktrace.Event) bool {
	if b.Kind != ktrace.KNone && e.Kind != b.Kind {
		return false
	}
	if b.Pid != 0 && int(e.Pid) != b.Pid {
		return false
	}
	if b.What >= 0 && e.What != b.What {
		return false
	}
	return true
}

// Watch is a memory watchpoint evaluated at pass granularity: after each
// scheduler pass the bytes at [Addr, Addr+Len) in pid's address space are
// compared against the previous pass.
type Watch struct {
	Pid  int
	Addr uint32
	Len  uint32

	prev   []byte
	prevOK bool
}

// String renders the watchpoint for the dbg UI.
func (w *Watch) String() string {
	return fmt.Sprintf("pid=%d [%#x,+%d)", w.Pid, w.Addr, w.Len)
}

// read fetches the watched bytes; ok is false when the process or mapping
// is gone (which itself counts as a change when it was readable before).
func (w *Watch) read(k *kernel.Kernel) ([]byte, bool) {
	p := k.Proc(w.Pid)
	if p == nil || p.AS == nil {
		return nil, false
	}
	buf := make([]byte, w.Len)
	if _, err := p.AS.ReadAt(buf, int64(w.Addr)); err != nil {
		return nil, false
	}
	return buf, true
}

// NewSession wraps a replayer.
func NewSession(r *Replayer) *Session { return &Session{R: r} }

// Stop describes why motion stopped.
type Stop struct {
	Step       uint64       // position after the motion
	EventIndex int          // matching event, -1 for watchpoints / end
	Event      ktrace.Event // valid when EventIndex >= 0
	Watch      *Watch       // the tripped watchpoint, if any
	AtEnd      bool         // ran off the recorded end
	AtStart    bool         // ran back to step 0
}

// String renders the stop reason.
func (s *Stop) String() string {
	switch {
	case s.Watch != nil:
		return fmt.Sprintf("watchpoint %s changed during step %d", s.Watch, s.Step)
	case s.EventIndex >= 0:
		return fmt.Sprintf("stopped at step %d on event %d: %s", s.Step, s.EventIndex, FmtEvent(s.Event))
	case s.AtEnd:
		return fmt.Sprintf("at end of recording (step %d)", s.Step)
	case s.AtStart:
		return fmt.Sprintf("at start of recording (step %d)", s.Step)
	}
	return fmt.Sprintf("stopped at step %d", s.Step)
}

// matchIdx returns the first recorded event index at or after (forward) or
// the last strictly before (backward) the given step that trips a
// breakpoint, or -1.
func (s *Session) matchForward(fromStep uint64) int {
	if len(s.Breaks) == 0 {
		return -1
	}
	for i, e := range s.R.art.Events {
		if s.R.art.EvSteps[i] < fromStep {
			continue
		}
		for _, b := range s.Breaks {
			if b.Matches(e) {
				return i
			}
		}
	}
	return -1
}

func (s *Session) matchBackward(beforeStep uint64) int {
	if len(s.Breaks) == 0 {
		return -1
	}
	for i := len(s.R.art.Events) - 1; i >= 0; i-- {
		if s.R.art.EvSteps[i] >= beforeStep {
			continue
		}
		for _, b := range s.Breaks {
			if b.Matches(s.R.art.Events[i]) {
				return i
			}
		}
	}
	return -1
}

// armWatches primes the watchpoint baselines at the current position.
func (s *Session) armWatches() {
	for _, w := range s.Watches {
		w.prev, w.prevOK = w.read(s.R.sys.K)
	}
}

// checkWatches reports the first watchpoint whose bytes changed since the
// baseline, updating all baselines.
func (s *Session) checkWatches() *Watch {
	var hit *Watch
	for _, w := range s.Watches {
		cur, ok := w.read(s.R.sys.K)
		changed := ok != w.prevOK || (ok && string(cur) != string(w.prev))
		w.prev, w.prevOK = cur, ok
		if changed && hit == nil {
			hit = w
		}
	}
	return hit
}

// StepForward advances one pass.
func (s *Session) StepForward() error {
	if s.R.Step() >= s.R.Steps() {
		return fmt.Errorf("replay: at end of recording")
	}
	return s.R.StepOnce()
}

// ReverseStep rewinds one pass: nearest-checkpoint restore plus forward
// re-execution to step-1.
func (s *Session) ReverseStep() error {
	if s.R.Step() == 0 {
		return fmt.Errorf("replay: at start of recording")
	}
	return s.R.Goto(s.R.Step() - 1)
}

// Continue runs forward until a breakpoint event fires or a watchpoint
// trips, stopping after the pass that contains the hit (the event has just
// happened, as in a conventional debugger).
func (s *Session) Continue() (*Stop, error) {
	s.armWatches()
	// Event breakpoints are resolved against the recording, so scan first
	// and only single-step when a watchpoint needs per-pass evaluation.
	evIdx := s.matchForward(s.R.Step())
	if len(s.Watches) == 0 {
		if evIdx < 0 {
			if err := s.R.Goto(s.R.Steps()); err != nil {
				return nil, err
			}
			return &Stop{Step: s.R.Step(), EventIndex: -1, AtEnd: true}, nil
		}
		if err := s.R.Goto(s.R.art.EvSteps[evIdx] + 1); err != nil {
			return nil, err
		}
		return &Stop{Step: s.R.Step(), EventIndex: evIdx, Event: s.R.art.Events[evIdx]}, nil
	}
	for s.R.Step() < s.R.Steps() {
		if err := s.R.StepOnce(); err != nil {
			return nil, err
		}
		if w := s.checkWatches(); w != nil {
			return &Stop{Step: s.R.Step(), EventIndex: -1, Watch: w}, nil
		}
		if evIdx >= 0 && s.R.Step() > s.R.art.EvSteps[evIdx] {
			return &Stop{Step: s.R.Step(), EventIndex: evIdx, Event: s.R.art.Events[evIdx]}, nil
		}
	}
	return &Stop{Step: s.R.Step(), EventIndex: -1, AtEnd: true}, nil
}

// ReverseContinue runs backward until the most recent breakpoint event
// before the current position, landing at the step boundary just before
// the pass that emits it — the state in which the fault/signal/call is
// about to happen.
func (s *Session) ReverseContinue() (*Stop, error) {
	evIdx := s.matchBackward(s.R.Step())
	if len(s.Watches) > 0 {
		if stop, err := s.reverseWatch(evIdx); stop != nil || err != nil {
			return stop, err
		}
	}
	if evIdx < 0 {
		if err := s.R.Goto(0); err != nil {
			return nil, err
		}
		return &Stop{Step: 0, EventIndex: -1, AtStart: true}, nil
	}
	if err := s.R.Goto(s.R.art.EvSteps[evIdx]); err != nil {
		return nil, err
	}
	return &Stop{Step: s.R.Step(), EventIndex: evIdx, Event: s.R.art.Events[evIdx]}, nil
}

// reverseWatch finds the last pass before the current position during
// which a watched range changed: rewind to the nearest checkpoint, replay
// forward tracking changes, and land just after the latest changing pass
// that is still before where we started (and after any candidate
// breakpoint event, which then loses). Returns (nil, nil) when no
// watchpoint changed in that window.
func (s *Session) reverseWatch(evIdx int) (*Stop, error) {
	origin := s.R.Step()
	var from uint64
	for _, c := range s.R.ckpts {
		if c.step < origin && c.step > from {
			from = c.step
		}
	}
	if err := s.R.Goto(from); err != nil {
		return nil, err
	}
	s.armWatches()
	lastChange := uint64(0)
	var lastWatch *Watch
	for s.R.Step() < origin {
		if err := s.R.StepOnce(); err != nil {
			return nil, err
		}
		if w := s.checkWatches(); w != nil {
			lastChange, lastWatch = s.R.Step(), w
		}
	}
	if lastWatch == nil {
		// Nothing changed in this window; fall back to the event match.
		return nil, nil
	}
	if evIdx >= 0 && s.R.art.EvSteps[evIdx]+1 > lastChange {
		return nil, nil // the breakpoint event is more recent; it wins
	}
	if err := s.R.Goto(lastChange); err != nil {
		return nil, err
	}
	return &Stop{Step: s.R.Step(), EventIndex: -1, Watch: lastWatch}, nil
}
