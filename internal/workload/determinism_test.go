package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro"
	"repro/internal/tools"
	"repro/internal/types"
)

// slurp reads one /procx file under root credentials.
func slurp(t *testing.T, s *repro.System, path string) []byte {
	t.Helper()
	b, err := s.Client(types.RootCred()).ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return b
}

// psTable renders the final process table through the batched snapshot.
func psTable(t *testing.T, s *repro.System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tools.PS(s.Client(types.RootCred()), &buf); err != nil {
		t.Fatalf("ps: %v", err)
	}
	return buf.Bytes()
}

// digest is the sha256 of the given streams, each prefixed with its length
// so moving bytes from one stream to the next changes the sum.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, b := range parts {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenDigests pins each scenario's simulation across commits: the digest
// of (/procx/trace, /procx/ktrace, ps table) at seed 42, smoke size, NCPU=1.
// Two runs of one binary agreeing proves only that the binary is
// deterministic; agreeing with this column proves a refactor of the
// scheduler or the clock moved no event and no timestamp.
var goldenDigests = map[string]string{
	"fork_storm":     "2003232d41de1106fe99ce23e39bbc4096e87900a842fb9cda6bf170bd5c5b3a",
	"syscall_mill":   "8a844f266d21107b28c166c08f3d544a29d19e0e9f9a38760b9b548621c01c6c",
	"pipe_pipeline":  "06cc6281687f1fa83e59875f3a325e803d2d3fbbb978e3e082b4c52242fbe8ce",
	"debugger_fleet": "0134ca66d4e8fbe55963651e10e26cc907900bfee6e4d8e504367cb8cd863a16",
	"proc_scan":      "7a85155f3f392fd2dc82749f474d6eb33ee1ad21e21cc191576afeb5ca519b49",
	"fs_churn":       "6e676ba22a497348f9ad3f0281b96baa62a7d6d0488b70727c988bc702fc2550",
}

// TestWorkloadDeterminism replays every scenario twice with the same seed
// and demands a bit-identical simulation: the kernel-wide ktrace stream, the
// trace counters page, and the final process table must all match each
// other and the scenario's golden digest. The scenarios advertise
// seed-replayable runs; the trace is the oracle.
func TestWorkloadDeterminism(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := smokeConfig(name)
			cfg.Seed = 42
			// Bit-identical replay is a deterministic-scheduler contract;
			// pin it so REPRO_NCPU in the environment cannot break it.
			cfg.NCPU = 1
			// Modest capacity: EnableKTraceAll gives every process a ring of
			// this size, and the storm scenarios create hundreds of them.
			cfg.TraceCap = 1 << 16
			run := func() (trace, stats, table []byte) {
				_, s, err := Run(name, cfg)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				return slurp(t, s, "/procx/trace"), slurp(t, s, "/procx/ktrace"), psTable(t, s)
			}
			trace1, stats1, table1 := run()
			trace2, stats2, table2 := run()
			if len(trace1) == 0 {
				t.Fatal("empty trace stream: scenario ran nothing")
			}
			if !bytes.Equal(trace1, trace2) {
				t.Errorf("trace streams differ: %d vs %d bytes", len(trace1), len(trace2))
			}
			if !bytes.Equal(stats1, stats2) {
				t.Errorf("trace counters differ:\n%s\nvs\n%s", stats1, stats2)
			}
			if !bytes.Equal(table1, table2) {
				t.Errorf("final process tables differ:\n%s\nvs\n%s", table1, table2)
			}
			if got, want := digest(trace1, stats1, table1), goldenDigests[name]; got != want {
				t.Errorf("golden digest %s, want %s", got, want)
			}
		})
	}
}

// TestWorkloadSeedSensitivity is the converse check: two different seeds
// must not replay the same simulation, or the "seedable" claim is vacuous.
// fork_storm picks family sizes and credentials from the stream, so its
// trace diverges immediately.
func TestWorkloadSeedSensitivity(t *testing.T) {
	run := func(seed int64) []byte {
		cfg := smokeConfig("fork_storm")
		cfg.Seed = seed
		cfg.TraceCap = 1 << 16
		_, s, err := Run("fork_storm", cfg)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return slurp(t, s, "/procx/trace")
	}
	if bytes.Equal(run(1), run(2)) {
		t.Fatal("different seeds replayed an identical trace stream")
	}
}
