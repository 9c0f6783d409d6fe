package replay

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestArtifactGolden pins the artifact format: the recorded soak marshals
// to the same bytes every time. A codec change that still round-trips but
// moves a byte fails here.
func TestArtifactGolden(t *testing.T) {
	b := recordStorm(t, stormPlan).Marshal()
	sum := sha256.Sum256(b)
	const want = "53982d9df7972747f74ab93e80cf95f9740911b437344a39fd19b22644db482e"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("artifact (%d bytes) sha256\n got %s\nwant %s", len(b), got, want)
	}
}
