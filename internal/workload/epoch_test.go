package workload

import (
	"testing"

	"repro/internal/mem"
)

// TestWorkloadLeavesEpochAlone pins the traffic the exposed-object epoch
// relies on: a bump drops every TLB in the system, which is cheap only
// because nothing writes a file a frame cache has been handed. Every
// scenario installs its programs before mapping them, execs, forks,
// debugs through /proc and writes data files, and none of that may move
// the epoch.
func TestWorkloadLeavesEpochAlone(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			before := mem.Epoch()
			res, _, err := Run(name, smokeConfig(name))
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Ops == 0 {
				t.Fatal("no operations measured")
			}
			if after := mem.Epoch(); after != before {
				t.Fatalf("the epoch moved %d times", after-before)
			}
		})
	}
}
