package main

import (
	"io"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/blockfs"
	"repro/internal/procfs"
	"repro/internal/rfs"
	"repro/internal/types"
	"repro/internal/vfs"
)

func tinyConfig(workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.4, trace: trace, setups: 2, warmup: 0.1, tiny: true}
}

// waitGoroutines waits for the goroutine count to fall back to want,
// reporting the count it settled at.
func waitGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// Every workload, untraced and traced, passes its own checks on a tiny
// population and leaves no goroutine behind: the SMP workers, the rfs
// server, the mux transport and the listener are all shut down.
func TestWorkloadsPassAndTearDown(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			before := runtime.NumGoroutine()
			res, st, msgs, err := execute(tinyConfig(w.name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, msgs)
			}
			if st.NCPU != w.ncpu || st.Seed != 7 || st.Commit == "" || st.GoVersion == "" {
				t.Errorf("%s: incomplete stamp %+v", w.name, st)
			}
			if n := waitGoroutines(before); n > before {
				t.Errorf("%s trace=%v: %d goroutines before, %d after", w.name, trace, before, n)
			}
		}
	}
}

// The metric sets are the declared ones, and every end-to-end metric of a
// correct run is non-zero.
func TestMetricSets(t *testing.T) {
	endToEndNames := []string{"setup_s", "ops_per_s", "op_p50_us", "op_p99_us", "user_mb_per_s", "pass_ratio", "heap_mb"}
	res, _, _, err := execute(tinyConfig("remote_ps", false))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(endToEndNames) {
		t.Errorf("end-to-end metrics: %v", res.Metrics)
	}
	for _, name := range endToEndNames {
		if m, ok := res.Metrics[name]; !ok || m.Value == 0 {
			t.Errorf("%s = %+v", name, m)
		}
	}
	res, _, _, err = execute(tinyConfig("disk_churn", true))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != 31 {
		t.Errorf("got %d per-layer metrics, want 31", len(res.Metrics))
	}
	for _, name := range []string{"blockfs.write_us", "blockfs.dev_us", "blockfs.fsync_us.p99", "kernel.pass_us.p50", "vcpu.instr_per_op"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("disk_churn %s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	for _, name := range []string{"rfs.rtt_us.p50", "procfs.wait_us"} {
		if res.Metrics[name].Value != 0 {
			t.Errorf("disk_churn %s = %v: the layer is not exercised", name, res.Metrics[name].Value)
		}
	}
}

// The self-test: with one expectation of each workload made wrong — an
// in-simulation one for the mill and the churners, a host-side one for the
// debugger and the sweeps — the run must fail.
func TestBrokenExpectationFailsTheRun(t *testing.T) {
	for _, w := range workloads {
		cfg := tinyConfig(w.name, false)
		cfg.breakCheck = true
		res, _, _, err := execute(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: run with a wrong expectation passed (attempted %d)", w.name, res.Attempted)
		}
	}
}

// Each wrapper has exactly the wrapped value's optional method set.
func TestWrappersKeepMethodSets(t *testing.T) {
	tr := newTracer()
	dev := &wDev{tr: tr, d: blockfs.NewMemDev(1024)}
	if err := blockfs.Mkfs(dev, 0); err != nil {
		t.Fatal(err)
	}
	fs, err := blockfs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	bl := blockfsLayer(tr)
	root, err := bl.wrapVnode(fs.Root())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := vnodeCaps(root), vnodeCaps(fs.Root()); got != want {
		t.Errorf("blockfs root: wrapper caps %#x, wrapped %#x", got, want)
	}
	file, err := root.(vfs.DirWriter).VCreate("f", 0o644, types.RootCred())
	if err != nil {
		t.Fatal(err)
	}
	h, err := file.VOpen(vfs.ORead|vfs.OWrite, types.RootCred())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.(fsyncer); !ok {
		t.Error("blockfs handle wrapper lost HSync")
	}

	s := repro.NewSystem()
	defer s.Close()
	p, err := s.SpawnProg("spin", "loop:\tjmp loop\n", types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	pl := procfsLayer(tr)
	proot, err := pl.wrapDir(s.Proc.Root())
	if err != nil {
		t.Fatal(err)
	}
	ns := vfs.NewNS(s.FS.Root())
	ns.Mount("/proc", proot)
	cl := &vfs.Client{NS: ns, Cred: types.RootCred()}
	for _, path := range []string{"/proc", "/proc/" + procfs.PidName(p.Pid)} {
		wrapped, err := cl.Open(path, vfs.ORead)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := s.Client(types.RootCred()).Open(path, vfs.ORead)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := handleCaps(wrapped.H), handleCaps(plain.H); got != want {
			t.Errorf("%s: wrapper handle caps %#x, wrapped %#x", path, got, want)
		}
		if got, want := vnodeCaps(wrapped.VN), vnodeCaps(plain.VN); got != want {
			t.Errorf("%s: wrapper vnode caps %#x, wrapped %#x", path, got, want)
		}
		wrapped.Close()
		plain.Close()
	}

	var tp rfs.Transport = &wTransport{tr: tr}
	if _, ok := tp.(rfs.IdemTransport); !ok {
		t.Error("transport wrapper is not an IdemTransport")
	}
	if _, ok := tp.(io.Closer); !ok {
		t.Error("transport wrapper is not an io.Closer")
	}
}

// A span's self time excludes its children, and nothing is negative.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.setOn(true)
	outer := tr.begin(kOp)
	time.Sleep(2 * time.Millisecond)
	inner := tr.begin(kRFS)
	time.Sleep(5 * time.Millisecond)
	tr.end(inner)
	tr.end(outer)
	op, rtt := tr.stat(kOp), tr.stat(kRFS)
	if op.incl < rtt.incl || op.self != op.incl-rtt.incl || rtt.self != rtt.incl {
		t.Errorf("op %+v rtt %+v", op, rtt)
	}
	if tr.violations != 0 || len(tr.spans) != 2 || tr.spans[0].parent != tr.spans[1].id {
		t.Errorf("spans %+v violations %d", tr.spans, tr.violations)
	}
}
