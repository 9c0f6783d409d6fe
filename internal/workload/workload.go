// Package workload holds deterministic, seedable whole-system scenarios —
// fork storms, syscall mills, pipe pipelines, debugger attach/detach churn,
// /proc scans over large process populations and a disk churn — used as
// test fixtures: the determinism suite replays them bit for bit, and the
// SMP smoke runs them on the work-stealing scheduler. They time nothing;
// perfbench and go test -bench are the repository's benchmarks.
//
// Scenarios drive a simulated system from the host side the way the
// repository's tools do. Every decision a scenario makes (which program to
// spawn, which target to attach to, which sweep to run) comes from a
// math/rand stream seeded by Config.Seed, so one seed replays one exact
// simulation: the ktrace stream and the final process table are
// bit-identical across runs.
package workload

import (
	"fmt"
	"math/rand"

	"repro"
)

// Config tunes one scenario run. Zero values take per-scenario defaults.
type Config struct {
	Seed     int64 // the replay key; same seed, same simulation
	Ops      int   // operations to run
	Procs    int   // population size, where the scenario has one
	TraceCap int   // when >0, enable kernel-wide ktrace with this capacity
	// NCPU selects the scheduler: 0 or 1 the deterministic one (1 pins it
	// against REPRO_NCPU), above 1 the SMP scheduler. Runs above 1 are
	// not bit-replayable — scheduling order depends on goroutine timing.
	NCPU int
}

// Scenario is one named workload.
type Scenario struct {
	Name string
	Desc string
	run  func(s *repro.System, cfg Config) (ops int, err error)
	// disk, when nonzero, boots the system with a persistent blockfs of
	// that many blocks at /disk.
	disk int
}

// scenarios is the registry, in presentation order.
var scenarios = []Scenario{
	{"fork_storm", "process creation/reaping churn: spawn a forker, run its family to completion", runForkStorm, 0},
	{"syscall_mill", "a fleet of processes grinding getpid; one op is one scheduler pass", runSyscallMill, 0},
	{"pipe_pipeline", "fork + pipe transfer with blocking reads, run to completion", runPipePipeline, 0},
	{"debugger_fleet", "attach/detach churn: open, stop, read registers, run, close", runDebuggerFleet, 0},
	{"proc_scan", "mixed ps/usage sweeps of /proc over a large live population", runProcScan, 0},
	{"fs_churn", "create/write/fsync/unlink mill on the persistent /disk; one op is one scheduler pass", runFSChurn, 2048},
}

// Names lists the registered scenarios in order.
func Names() []string {
	out := make([]string, len(scenarios))
	for i, sc := range scenarios {
		out[i] = sc.Name
	}
	return out
}

// Get returns a scenario by name.
func Get(name string) (Scenario, bool) {
	for _, sc := range scenarios {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// Run boots a fresh system, runs the named scenario under cfg, and returns
// the number of operations it ran along with the system itself so callers
// (the determinism harness) can inspect the trace stream and final process
// table.
func Run(name string, cfg Config) (int, *repro.System, error) {
	sc, ok := Get(name)
	if !ok {
		return 0, nil, fmt.Errorf("workload: unknown scenario %q (have %v)", name, Names())
	}
	s := repro.NewSystem(repro.Options{NCPU: cfg.NCPU, DiskBlocks: sc.disk})
	if cfg.TraceCap > 0 {
		s.K.EnableKTraceAll(cfg.TraceCap)
	}
	ops, err := sc.run(s, cfg)
	if err != nil {
		return ops, s, fmt.Errorf("workload: %s: %w", name, err)
	}
	return ops, s, nil
}

// rng returns the scenario's decision stream.
func (cfg Config) rng() *rand.Rand { return rand.New(rand.NewSource(cfg.Seed)) }

// orDefault picks a configured value or the scenario default.
func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}
