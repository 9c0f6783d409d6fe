package ktrace

import (
	"encoding/hex"
	"testing"
)

// TestEncodeStatsGolden pins the counters page format: emitted, dropped,
// the non-zero histogram count, then (syscall, count) pairs in ascending
// syscall order.
func TestEncodeStatsGolden(t *testing.T) {
	var s Stats
	s.Emitted, s.Dropped = 1000, 7
	s.PerSys[1], s.PerSys[4], s.PerSys[MaxSysHist-1] = 3, 1<<40, 9
	const want = "00000000000003e8000000000000000700000003000000010000000000000003000000040000010000000000000000ff0000000000000009"
	if got := hex.EncodeToString(EncodeStats(s)); got != want {
		t.Fatalf("EncodeStats\n got %s\nwant %s", got, want)
	}
}
