// Command perfbench is the repository's benchmark: four closed-loop
// workloads over the simulated SVR4 kernel, each driven by one host process,
// that report end-to-end metrics from untraced runs and per-layer metrics
// from a separate traced run. README.md in this directory describes the
// workloads, the metric map and how the older BENCH_PR*.json numbers relate.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	python3 perfbench/run.py --workload proc_mill --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it stamps the run
// (commit, host CPUs, GOMAXPROCS, Go version, the workload's NCPU and seed).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measured time; a traced run splits it between its two phases
	trace    bool
	setups   int     // minimum set-ups per run; setup_s is their median
	warmup   float64 // seconds run before measuring
	outDir   string  // where a traced run writes its spans

	// tiny shrinks populations for the package's own tests.
	tiny bool
	// breakCheck makes one correctness expectation of the workload wrong;
	// the self-test uses it to prove a wrong program fails the run.
	breakCheck bool
}

// bench is one workload instance: a booted, populated system and the loop
// that drives it.
type bench interface {
	// setup boots the system and populates it.
	setup() error
	// run drives the closed loop until the deadline, recording into m.
	run(deadline time.Time, m *measure) error
	// drain stops the workload and runs the end-of-run correctness checks.
	drain(m *measure) error
	// close releases everything setup acquired. It is safe after a failed
	// setup and safe to call twice.
	close()
}

type workloadDef struct {
	name string
	ncpu int // simulated CPUs
	new  func(cfg config, tr *tracer) bench
}

var workloads = []workloadDef{
	{"proc_mill", 2, newProcMill},
	{"debug_session", 1, newDebugSession},
	{"remote_ps", 1, newRemotePS},
	{"disk_churn", 1, newDiskChurn},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// measure accumulates one phase's ops, checks and layer counts.
type measure struct {
	ops, failed int64
	lat         []float64 // per-op latency, µs
	userBytes   float64   // user-visible payload bytes moved
	msgs        []string  // the first failure messages
	// offClock is time spent inside run on checks and measurement rather
	// than on the workload; rates leave it out.
	offClock time.Duration

	// Traced-run counts.
	kc                    kcount  // kernel, vCPU and memory work inside ops
	procfsOps             float64 // /proc operations issued
	rfsTrips              float64 // rfs round trips
	wire                  []float64
	userWritten, userRead float64 // disk_churn file bytes
}

// merge folds a window's measure into m.
func (m *measure) merge(w *measure) {
	m.ops += w.ops
	m.failed += w.failed
	m.lat = append(m.lat, w.lat...)
	m.userBytes += w.userBytes
	for _, msg := range w.msgs {
		if len(m.msgs) < 8 {
			m.msgs = append(m.msgs, msg)
		}
	}
	m.offClock += w.offClock
	m.kc.add(w.kc)
	m.procfsOps += w.procfsOps
	m.rfsTrips += w.rfsTrips
	m.wire = append(m.wire, w.wire...)
	m.userWritten += w.userWritten
	m.userRead += w.userRead
}

func (m *measure) fail(format string, args ...any) {
	m.failed++
	if len(m.msgs) < 8 {
		m.msgs = append(m.msgs, fmt.Sprintf(format, args...))
	}
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// windows is how many equal windows a measured phase is split into. The
// end-to-end rates and percentiles are medians over the windows, so a
// burst of interference from outside the benchmark moves at most the
// windows it falls in.
const windows = 10

// window is one window's rates and percentiles.
type window struct {
	opsPerS, p50, p99, mbPerS, heapMB float64
}

// phase is one setup-measure-drain cycle.
type phase struct {
	setup    []float64 // seconds per set-up
	windows  []window
	m        *measure // the whole measured phase
	attempts int64    // ops attempted, warm-up included
	failed   int64    // failures, warm-up and end checks included
	msgs     []string
	mallocs  uint64
	tr       *tracer
}

// maxSetups caps the set-ups of one run.
const maxSetups = 201

// runPhase sets the workload up at least setups times and for at least
// setupFor (keeping the last), warms it up, measures it for seconds and
// drains it. A traced phase wraps the layers and records spans during the
// measured time only.
func runPhase(cfg config, def workloadDef, setups int, setupFor time.Duration, seconds float64, traced bool) (ph *phase, err error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	ph = &phase{tr: tr, m: &measure{}}
	var b bench
	defer func() {
		if b != nil {
			b.close()
		}
	}()
	var spent time.Duration
	for i := 0; i < setups || (i < maxSetups && spent < setupFor); i++ {
		if b != nil {
			b.close()
		}
		b = def.new(cfg, tr)
		// Each set-up starts from a collected heap whose free pages have gone
		// back to the OS, as in a fresh process. It does not pay for the
		// previous one's garbage, and it always pays for fresh pages rather
		// than only when the runtime no longer holds reusable ones.
		debug.FreeOSMemory()
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("%s setup: %w", def.name, err)
		}
		took := time.Since(t0)
		spent += took
		ph.setup = append(ph.setup, took.Seconds())
	}
	warm := &measure{}
	if err := b.run(time.Now().Add(seconds2dur(cfg.warmup)), warm); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", def.name, err)
	}
	// The warm-up's latency samples are never used. Kept, their buffer
	// would count in heap_mb, in steps of the buffer's growth that depend
	// on how many ops the host managed in the warm-up.
	warm.lat = nil
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tr.setOn(true)
	start := time.Now()
	for i := 1; i <= windows; i++ {
		wm := &measure{}
		wstart := time.Now()
		if err := b.run(start.Add(seconds2dur(seconds*float64(i)/windows)), wm); err != nil {
			return nil, fmt.Errorf("%s run: %w", def.name, err)
		}
		el := (time.Since(wstart) - wm.offClock).Seconds()
		// The live heap, collected between windows and off the clock, less
		// the benchmark's own sample buffers.
		gc := time.Now()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		own := 8 * (cap(ph.m.lat) + cap(wm.lat) + cap(ph.m.wire) + cap(wm.wire))
		start = start.Add(time.Since(gc))
		ph.windows = append(ph.windows, window{
			opsPerS: float64(wm.ops) / el,
			p50:     quantile(wm.lat, 0.50),
			p99:     quantile(wm.lat, 0.99),
			mbPerS:  wm.userBytes / 1e6 / el,
			heapMB:  float64(int(ms.HeapAlloc)-own) / 1e6,
		})
		ph.m.merge(wm)
	}
	tr.setOn(false)
	runtime.ReadMemStats(&ms1)
	ph.mallocs = ms1.Mallocs - ms0.Mallocs

	checks := &measure{}
	if err := b.drain(checks); err != nil {
		return nil, fmt.Errorf("%s drain: %w", def.name, err)
	}
	if tr != nil && tr.violations > 0 {
		checks.fail("trace: %d spans had children outlasting them", tr.violations)
	}
	ph.attempts = warm.ops + ph.m.ops
	ph.failed = warm.failed + ph.m.failed + checks.failed
	for _, ms := range [][]string{warm.msgs, ph.m.msgs, checks.msgs} {
		ph.msgs = append(ph.msgs, ms...)
	}
	return ph, nil
}

func seconds2dur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type stamp struct {
	Commit     string  `json:"commit"`
	HostCPUs   int     `json:"host_cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Workload   string  `json:"workload"`
	NCPU       int     `json:"ncpu"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	Samples    int     `json:"latency_samples"`
	Warning    string  `json:"warning,omitempty"`
}

// execute runs one invocation and returns its result, its stamp and the
// failure messages.
func execute(cfg config) (*result, *stamp, []string, error) {
	def, ok := lookupWorkload(cfg.workload)
	if !ok {
		return nil, nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	st := &stamp{
		Commit: commitStamp(), HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Workload: def.name, NCPU: def.ncpu, Seed: cfg.seed,
		Trace: cfg.trace, Seconds: cfg.seconds,
	}
	if def.ncpu > runtime.NumCPU() {
		st.Warning = fmt.Sprintf("workload runs NCPU=%d on a %d-CPU host: SMP workers cannot all run in parallel; timings measure contention, not scaling",
			def.ncpu, runtime.NumCPU())
	}
	res := &result{}
	var msgs []string
	if !cfg.trace {
		// The run keeps setting up past cfg.setups until the set-ups have
		// taken a tenth of the measured time, so that a set-up of a
		// millisecond is sampled often enough for its median to settle.
		ph, err := runPhase(cfg, def, cfg.setups, seconds2dur(cfg.seconds/10), cfg.seconds, false)
		if err != nil {
			return nil, st, nil, err
		}
		st.Samples = len(ph.m.lat)
		res.Attempted, res.Failed, msgs = ph.attempts, ph.failed, ph.msgs
		res.Metrics = endToEnd(ph)
	} else {
		// The untraced half is the baseline for the tracing overhead and
		// the allocation count; the traced half gives every layer metric.
		base, err := runPhase(cfg, def, 1, 0, cfg.seconds/2, false)
		if err != nil {
			return nil, st, nil, err
		}
		tp, err := runPhase(cfg, def, 1, 0, cfg.seconds/2, true)
		if err != nil {
			return nil, st, nil, err
		}
		st.Samples = len(tp.m.lat)
		res.Attempted = base.attempts + tp.attempts
		res.Failed = base.failed + tp.failed
		msgs = append(base.msgs, tp.msgs...)
		res.Metrics = perLayer(base, tp)
		if cfg.outDir != "" {
			if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
				return nil, st, nil, err
			}
			b, _ := json.Marshal(st)
			path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.tsv", def.name, cfg.seed))
			if err := tp.tr.writeSpans(path, string(b)); err != nil {
				return nil, st, nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed++
		msgs = append(msgs, "no op completed")
	}
	res.Correct = res.Failed == 0
	return res, st, msgs, nil
}

// windowMedian is the median over the phase's windows of one value.
func (ph *phase) windowMedian(f func(window) float64) float64 {
	xs := make([]float64, len(ph.windows))
	for i, w := range ph.windows {
		xs[i] = f(w)
	}
	return median(xs)
}

// endToEnd computes the user-visible metrics of an untraced phase.
func endToEnd(ph *phase) map[string]metric {
	pass := ratio(float64(ph.attempts-ph.failed), float64(ph.attempts))
	return map[string]metric{
		"setup_s":       {median(ph.setup), "s"},
		"ops_per_s":     {ph.windowMedian(func(w window) float64 { return w.opsPerS }), "1/s"},
		"op_p50_us":     {ph.windowMedian(func(w window) float64 { return w.p50 }), "us"},
		"op_p99_us":     {ph.windowMedian(func(w window) float64 { return w.p99 }), "us"},
		"user_mb_per_s": {ph.windowMedian(func(w window) float64 { return w.mbPerS }), "MB/s"},
		"pass_ratio":    {pass, "ratio"},
		"heap_mb":       {ph.windowMedian(func(w window) float64 { return w.heapMB }), "MB"},
	}
}

// perLayer computes the layer metrics of a traced run from its traced phase
// tp and its untraced baseline phase base. Time metrics without a
// percentile suffix are mean host µs spent in the layer per op; a layer the
// workload does not exercise reports 0.
func perLayer(base, tp *phase) map[string]metric {
	m, tr := tp.m, tp.tr
	perOp := func(x float64) float64 { return ratio(x, float64(m.ops)) }
	incl := func(ks ...kind) float64 {
		var ns int64
		for _, k := range ks {
			ns += tr.stat(k).incl
		}
		return perOp(float64(ns) / 1e3)
	}
	self := func(k kind) float64 { return perOp(float64(tr.stat(k).self) / 1e3) }
	calls := func(k kind) float64 { return perOp(float64(tr.stat(k).n)) }
	rate := func(w window) float64 { return w.opsPerS }
	baseRate, tracedRate := base.windowMedian(rate), tp.windowMedian(rate)
	return map[string]metric{
		"kernel.pass_us.p50":               {quantile(tr.samples[kStep], 0.50), "us"},
		"kernel.pass_us.p99":               {quantile(tr.samples[kStep], 0.99), "us"},
		"kernel.passes_per_op":             {calls(kStep), "count"},
		"kernel.syscalls_per_op":           {perOp(m.kc.syscalls), "count"},
		"kernel.self_us":                   {self(kStep), "us"},
		"vcpu.instr_per_op":                {perOp(m.kc.instr), "count"},
		"mem.cow_faults_per_op":            {perOp(m.kc.cow), "count"},
		"mem.minor_faults_per_op":          {perOp(m.kc.minor), "count"},
		"procfs.ops_per_op":                {perOp(m.procfsOps), "count"},
		"procfs.ctl_us":                    {incl(kProcCtl), "us"},
		"procfs.wait_us":                   {incl(kProcWait), "us"},
		"procfs.as_io_us":                  {incl(kProcIO), "us"},
		"procfs.snap_us":                   {incl(kProcSnap, kProcMeta), "us"},
		"rfs.round_trips_per_op":           {perOp(m.rfsTrips), "count"},
		"rfs.bytes_per_op":                 {perOp(float64(tr.connBytes)), "B"},
		"rfs.rtt_us.p50":                   {quantile(tr.samples[kRFS], 0.50), "us"},
		"rfs.rtt_us.p99":                   {quantile(tr.samples[kRFS], 0.99), "us"},
		"rfs.self_us":                      {self(kRFS), "us"},
		"rfs.wire_us":                      {median(m.wire), "us"},
		"tools.self_us":                    {self(kOp), "us"},
		"blockfs.write_us":                 {incl(kBfsWrite), "us"},
		"blockfs.read_us":                  {incl(kBfsRead), "us"},
		"blockfs.meta_us":                  {incl(kBfsMeta), "us"},
		"blockfs.fsync_us.p50":             {quantile(tr.samples[kBfsFsync], 0.50), "us"},
		"blockfs.fsync_us.p99":             {quantile(tr.samples[kBfsFsync], 0.99), "us"},
		"blockfs.dev_us":                   {incl(kDevRead, kDevWrite, kDevSync), "us"},
		"blockfs.dev_write_kb_per_user_kb": {ratio(float64(tr.devWriteBytes), m.userWritten), "ratio"},
		"blockfs.dev_syncs_per_op":         {calls(kDevSync), "count"},
		"blockfs.dev_read_kb_per_user_kb":  {ratio(float64(tr.devReadBytes), m.userRead), "ratio"},
		"go.allocs_per_op":                 {ratio(float64(base.mallocs), float64(base.m.ops)), "count"},
		"trace.overhead_pct":               {ratio(baseRate-tracedRate, baseRate) * 100, "pct"},
	}
}

// commitStamp names the code measured: a hash of the Go sources and module
// files under the working directory, so an uncommitted change gets a stamp
// of its own.
func commitStamp() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".mod")) {
			if f, err := os.Open(path); err == nil {
				io.WriteString(h, path)
				io.Copy(h, f)
				f.Close()
			}
		}
		return nil
	})
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: proc_mill, debug_session, remote_ps or disk_churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the workload's inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's span file")
	flag.Parse()
	cfg.trace = trace != 0
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	cfg.setups, cfg.warmup = 21, 1
	if n := runtime.NumCPU(); n < 2 {
		runtime.GOMAXPROCS(n)
	} else {
		runtime.GOMAXPROCS(2)
	}

	res, st, msgs, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if st.Warning != "" {
		fmt.Fprintln(os.Stderr, "perfbench: warning:", st.Warning)
	}
	for _, msg := range msgs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	sb, _ := json.Marshal(map[string]*stamp{"stamp": st})
	rb, _ := json.Marshal(res)
	fmt.Printf("%s\n%s\n", sb, rb)
	if !res.Correct {
		os.Exit(1)
	}
}
