package blockfs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/fault"
)

// hashDev wraps a device and folds every WriteBlock into a running hash as
// (block number, block bytes), so two runs that agree on the hash issued
// the same device writes, in the same order, with the same contents.
type hashDev struct {
	Dev
	h      hash.Hash
	writes int
}

func (d *hashDev) WriteBlock(no uint32, p []byte) error {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], no)
	d.h.Write(n[:])
	d.h.Write(p[:BlockSize])
	d.writes++
	return d.Dev.WriteBlock(no, p)
}

// TestGoldenDeviceStream pins the exact device-write stream of the crash
// storm's workload at 400 ops: the write count and a hash of every
// (block, bytes) pair. The journal format, the write-back order and the
// transaction bookkeeping may be reworked freely, but only as long as the
// bytes that reach the device stay identical.
func TestGoldenDeviceStream(t *testing.T) {
	cases := []struct {
		seed   int64
		writes int
		sum    string
	}{
		{42, 5555, "7a5e5b650b3f34e262dae6f21f4eb83e54ad511bc8ecd3f4640944581f4bf14a"},
		{1991, 5788, "982be83e69483c0334b8bac31d6630abd68e23ea2060f5515268798460ceb76b"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("seed%d", tc.seed), func(t *testing.T) {
			fault.Guard(t)
			raw := NewMemDev(1024)
			if err := Mkfs(raw, 0); err != nil {
				t.Fatalf("Mkfs: %v", err)
			}
			hd := &hashDev{Dev: raw, h: sha256.New()}
			fs, err := Mount(hd, MountOptions{CacheSlots: 32})
			if err != nil {
				t.Fatalf("Mount: %v", err)
			}
			runOps(t, fs, makeOps(tc.seed, 400))
			if err := fs.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			sum := hex.EncodeToString(hd.h.Sum(nil))
			if hd.writes != tc.writes || sum != tc.sum {
				t.Fatalf("device stream: %d writes, sha256 %s; want %d writes, sha256 %s",
					hd.writes, sum, tc.writes, tc.sum)
			}
		})
	}
}
