package workload

import "testing"

// smokeConfig shrinks each scenario to a few seconds of work while still
// exercising its full machinery: spawn, run, drain.
func smokeConfig(name string) Config {
	cfg := Config{Seed: 7}
	switch name {
	case "fork_storm":
		cfg.Ops = 6
	case "syscall_mill":
		cfg.Procs = 4
		cfg.Ops = 60
	case "pipe_pipeline":
		cfg.Ops = 4
	case "debugger_fleet":
		cfg.Procs = 3
		cfg.Ops = 10
	case "proc_scan":
		cfg.Procs = 30
		cfg.Ops = 4
	case "fs_churn":
		cfg.Procs = 3
		cfg.Ops = 3
	}
	return cfg
}

// TestWorkloadSmoke runs every registered scenario at smoke size and checks
// it ran its operations and returned the system it ran on.
func TestWorkloadSmoke(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			ops, s, err := Run(name, smokeConfig(name))
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if s == nil {
				t.Fatal("no system returned")
			}
			if ops == 0 {
				t.Fatal("no operations ran")
			}
		})
	}
}

// TestWorkloadUnknownScenario checks the error path names the registry.
func TestWorkloadUnknownScenario(t *testing.T) {
	if _, _, err := Run("no_such_scenario", Config{Seed: 1}); err == nil {
		t.Fatal("want error for unknown scenario")
	}
}
