package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// kind names the layer boundary a span was recorded at. Spans are recorded
// only by the benchmark's own code: around the calls it makes into a
// layer's public functions, and inside the wrappers (wrap.go) it installs
// at layer boundaries in traced runs.
type kind uint8

const (
	kOp       kind = iota // tools: one benchmark-driven op (a debugger round, a ps sweep)
	kStep                 // kernel: one Kernel.Step pass
	kProcCtl              // procfs: a non-waiting ioctl (PIOCSTOP, PIOCGREG, PIOCRUN, ...)
	kProcWait             // procfs: PIOCWSTOP, which runs the scheduler until the stop
	kProcIO               // procfs: an as-file read or write
	kProcSnap             // procfs: PIOCSNAP
	kProcMeta             // procfs: lookup, open, close, attr, readdir, poll
	kRFS                  // rfs: one transport round trip
	kBfsWrite             // blockfs: HWrite
	kBfsRead              // blockfs: HRead
	kBfsFsync             // blockfs: HSync or VSync (a checkpoint)
	kBfsMeta              // blockfs: every other vnode or handle call
	kDevRead              // blockfs device: ReadBlock
	kDevWrite             // blockfs device: WriteBlock
	kDevSync              // blockfs device: Sync
	nKinds
)

var kindNames = [nKinds]string{
	"tools.op", "kernel.step",
	"procfs.ctl", "procfs.wait", "procfs.as_io", "procfs.snap", "procfs.meta",
	"rfs.rtt",
	"blockfs.write", "blockfs.read", "blockfs.fsync", "blockfs.meta",
	"dev.read", "dev.write", "dev.sync",
}

// sampled marks the kinds whose per-call durations are kept for
// percentiles.
var sampled = [nKinds]bool{kStep: true, kRFS: true, kBfsFsync: true}

const (
	maxSpans   = 200_000   // span records kept for the span file; later ones are counted, not kept
	maxSamples = 4_000_000 // per-kind duration samples kept for percentiles
)

// span is one finished span: times are nanoseconds since the tracer's
// origin, parent is 0 for a root span.
type span struct {
	id, parent uint32
	kind       kind
	start, end int64
}

type frame struct {
	id    uint32
	kind  kind
	start int64
	child int64 // nanoseconds covered by finished child spans
}

// layerStat accumulates one kind: calls, inclusive time and self time (the
// span minus the part its children cover), in nanoseconds.
type layerStat struct {
	n, incl, self int64
}

// tracer keeps spans in memory and writes them out when the run ends. One
// stack of open spans serves every goroutine: the workloads are closed
// loops with one request in flight, so a server-side span opened on an rfs
// worker goroutine nests inside the client's open round-trip span, and the
// handoff through the transport orders the two. A child's self time is
// therefore its duration minus its finished children, computed as each span
// closes, and memory stays bounded however long the run.
type tracer struct {
	mu         sync.Mutex
	on         bool
	t0         time.Time
	nextID     uint32
	stack      []frame
	spans      []span
	dropped    int64
	stats      [nKinds]layerStat
	samples    [nKinds][]float64 // durations in µs
	violations int64             // spans whose children outlasted them

	devReadBytes, devWriteBytes int64
	connBytes                   int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1024)}
}

// setOn starts or stops recording. It is called between ops, with no span
// open.
func (t *tracer) setOn(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// begin opens a span of kind k, reporting whether it did; the caller passes
// the result to end. A nil or stopped tracer records nothing.
func (t *tracer) begin(k kind) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return false
	}
	t.nextID++
	t.stack = append(t.stack, frame{id: t.nextID, kind: k, start: int64(time.Since(t.t0))})
	return true
}

// end closes the innermost open span, if begin opened one.
func (t *tracer) end(opened bool) {
	if !opened {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - f.start
	self := d - f.child
	if self < 0 {
		t.violations++
		self = 0
	}
	st := &t.stats[f.kind]
	st.n++
	st.incl += d
	st.self += self
	var parent uint32
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
		parent = t.stack[n-1].id
	}
	if sampled[f.kind] && len(t.samples[f.kind]) < maxSamples {
		t.samples[f.kind] = append(t.samples[f.kind], float64(d)/1e3)
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{id: f.id, parent: parent, kind: f.kind, start: f.start, end: now})
	} else {
		t.dropped++
	}
}

// count adds n to one of the tracer's byte counters while recording.
func (t *tracer) count(c *int64, n int) {
	t.mu.Lock()
	if t.on {
		*c += int64(n)
	}
	t.mu.Unlock()
}

// stat returns a copy of one kind's totals.
func (t *tracer) stat(k kind) layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats[k]
}

// writeSpans writes the kept spans as tab-separated lines after a header
// line carrying the run's stamp.
func (t *tracer) writeSpans(path, stamp string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\n# spans kept %d, dropped %d\nid\tparent\tname\tstart_ns\tend_ns\n", stamp, len(t.spans), t.dropped)
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, kindNames[s.kind], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
