package blockfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/vfs"
)

// cachedState is one buffer's bytes and dirty bit.
type cachedState struct {
	data  []byte
	dirty bool
}

func snapCache(fs *FS) map[uint32]cachedState {
	out := make(map[uint32]cachedState, len(fs.c.m))
	for no, b := range fs.c.m {
		out[no] = cachedState{append([]byte(nil), b.data...), b.dirty}
	}
	return out
}

func openRW(t *testing.T, fs *FS, name string) vfs.Handle {
	t.Helper()
	vn, err := fs.Root().VLookup(name, testCred)
	if err != nil {
		t.Fatalf("lookup %s: %v", name, err)
	}
	h, err := vn.VOpen(vfs.ORead|vfs.OWrite, testCred)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	return h
}

// TestRolledBackTxIgnoresRecycledSlots: transaction slots and their
// pre-image buffers outlive the transaction that filled them. Transaction A
// overwrites blocks X and Y of file "a" and commits; transaction B then
// overwrites block Z of file "z" — already dirty from an earlier committed
// write, so its pre-B dirty bit differs from X's — and fails at each of its
// journal writes. Every cached buffer, Z included, must come back to its
// pre-B bytes and dirty bit rather than to A's leftover pre-image, the file
// system must check clean, and a retry of B must then commit.
func TestRolledBackTxIgnoresRecycledSlots(t *testing.T) {
	for k := uint64(1); k <= 4; k++ {
		t.Run(fmt.Sprintf("journal%d", k), func(t *testing.T) {
			fault.Guard(t)
			fs, _ := newTestFS(t, 1024)
			if err := writeFile(fs.Root(), "a", pattern(1, 2*BlockSize)); err != nil {
				t.Fatalf("setup a: %v", err)
			}
			if err := writeFile(fs.Root(), "z", pattern(2, BlockSize)); err != nil {
				t.Fatalf("setup z: %v", err)
			}
			if err := fs.Sync(); err != nil {
				t.Fatalf("setup sync: %v", err)
			}
			ha, hz := openRW(t, fs, "a"), openRW(t, fs, "z")
			defer ha.HClose()
			defer hz.HClose()

			// Z becomes dirty with committed data; X and Y stay clean.
			zCommitted := pattern(3, BlockSize)
			if _, err := hz.HWrite(zCommitted, 0); err != nil {
				t.Fatalf("dirtying z: %v", err)
			}
			// Transaction A: X and Y.
			if _, err := ha.HWrite(pattern(4, 2*BlockSize), 0); err != nil {
				t.Fatalf("transaction A: %v", err)
			}

			before := snapCache(fs)
			siteJournal.Arm(fault.Spec{Nth: k})
			_, err := hz.HWrite(pattern(5, BlockSize), 0)
			siteJournal.Disarm()
			if !errors.Is(err, vfs.ErrIO) {
				t.Fatalf("transaction B with journal write %d failing: %v, want ErrIO", k, err)
			}
			if len(fs.tx) != 0 || fs.txOpen {
				t.Fatalf("transaction state left open: %d slots, open=%v", len(fs.tx), fs.txOpen)
			}
			for no, want := range before {
				b, ok := fs.c.m[no]
				if !ok {
					t.Fatalf("block %d left the cache", no)
				}
				if !bytes.Equal(b.data, want.data) || b.dirty != want.dirty {
					t.Fatalf("block %d after rollback: dirty=%v, bytes equal=%v; want dirty=%v and pre-B bytes",
						no, b.dirty, bytes.Equal(b.data, want.data), want.dirty)
				}
				if b.pins != 0 || b.inTx {
					t.Fatalf("block %d after rollback: pins=%d inTx=%v", no, b.pins, b.inTx)
				}
			}
			mustCleanFsck(t, fs, "after rolled-back B")
			if got, err := readFile(fs.Root(), "z"); err != nil || !bytes.Equal(got, zCommitted) {
				t.Fatalf("z after rolled-back B: err=%v, equal=%v", err, bytes.Equal(got, zCommitted))
			}

			retry := pattern(6, BlockSize)
			if _, err := hz.HWrite(retry, 0); err != nil {
				t.Fatalf("retry of B: %v", err)
			}
			if got, err := readFile(fs.Root(), "z"); err != nil || !bytes.Equal(got, retry) {
				t.Fatalf("z after retried B: err=%v, equal=%v", err, bytes.Equal(got, retry))
			}
			mustCleanFsck(t, fs, "after retried B")
		})
	}
}

// TestRecycledBufferReadsZero: get(no, false) promises a zeroed buffer,
// and once the cache is full the buffer it returns is an evicted one that
// still holds its previous block's bytes.
func TestRecycledBufferReadsZero(t *testing.T) {
	fault.Guard(t)
	fs, _ := newTestFS(t, 1024, MountOptions{CacheSlots: minCacheSlots})
	c := fs.c
	base := fs.sb.dataStart
	for i := uint32(0); i < minCacheSlots; i++ {
		b, err := c.get(base+i, false)
		if err != nil {
			t.Fatalf("fill slot %d: %v", i, err)
		}
		for j := range b.data {
			b.data[j] = 0xa5
		}
		c.put(b)
	}
	victim := c.tail
	b, err := c.get(base+minCacheSlots, false)
	if err != nil {
		t.Fatalf("get past a full cache: %v", err)
	}
	defer c.put(b)
	if b != victim {
		t.Fatalf("get did not recycle the evicted LRU buffer")
	}
	if b.no != base+minCacheSlots || b.dirty || b.inTx || b.pins != 1 {
		t.Fatalf("recycled buffer state: no=%d dirty=%v inTx=%v pins=%d", b.no, b.dirty, b.inTx, b.pins)
	}
	for i, v := range b.data {
		if v != 0 {
			t.Fatalf("recycled buffer byte %d = %#x, want 0", i, v)
		}
	}
	if _, ok := c.m[base]; ok || len(c.m) != minCacheSlots {
		t.Fatalf("eviction bookkeeping: evicted block still mapped=%v, %d slots used", ok, len(c.m))
	}
}
