package blockfs

import (
	"errors"
	"os"
	"sync"

	"repro/internal/fault"
)

// Dev is a block device: a fixed array of BlockSize-byte blocks addressed by
// absolute block number. WriteBlock is all-or-nothing at block granularity —
// the journal's torn-write detection is per block, not per byte — and Sync is
// the durability barrier the journal orders its records around. A device
// must not keep p past the call: the file system reuses its block buffers.
type Dev interface {
	ReadBlock(no uint32, p []byte) error
	WriteBlock(no uint32, p []byte) error
	Sync() error
	Blocks() uint32
	Close() error
}

var (
	// ErrDevRange reports a block access outside the device.
	ErrDevRange = errors.New("blockfs: block number out of range")
	// ErrCrashed is what a crashed device answers to everything: the
	// write that triggered the crash is lost, and nothing works again
	// until the image is remounted through a fresh device.
	ErrCrashed = errors.New("blockfs: device crashed")
)

// MemDev is an in-memory block device, the unit-test and crash-storm image.
type MemDev struct {
	mu   sync.Mutex
	data []byte
}

// NewMemDev creates a zeroed in-memory device of nblocks blocks.
func NewMemDev(nblocks uint32) *MemDev {
	return &MemDev{data: make([]byte, int(nblocks)*BlockSize)}
}

// ReadBlock implements Dev.
func (d *MemDev) ReadBlock(no uint32, p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	off := int(no) * BlockSize
	if off+BlockSize > len(d.data) {
		return ErrDevRange
	}
	copy(p, d.data[off:off+BlockSize])
	return nil
}

// WriteBlock implements Dev.
func (d *MemDev) WriteBlock(no uint32, p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	off := int(no) * BlockSize
	if off+BlockSize > len(d.data) {
		return ErrDevRange
	}
	copy(d.data[off:off+BlockSize], p)
	return nil
}

// Sync implements Dev; memory is always durable.
func (d *MemDev) Sync() error { return nil }

// Blocks implements Dev.
func (d *MemDev) Blocks() uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return uint32(len(d.data) / BlockSize)
}

// Close implements Dev.
func (d *MemDev) Close() error { return nil }

// Snapshot returns a deep copy of the image, for crash-storm oracles that
// compare a recovered image against a reference.
func (d *MemDev) Snapshot() *MemDev {
	d.mu.Lock()
	defer d.mu.Unlock()
	return &MemDev{data: append([]byte(nil), d.data...)}
}

// FileDev is a raw-image file device: block n lives at byte offset n*BlockSize
// of a host file. It is how a mounted file system survives process restarts.
type FileDev struct {
	f       *os.File
	nblocks uint32
}

// OpenFileDev opens (or creates) a raw image of nblocks blocks. Opening an
// existing image with nblocks 0 sizes the device from the file; a fresh image
// is extended to the requested size.
func OpenFileDev(path string, nblocks uint32) (*FileDev, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	have := uint32(st.Size() / BlockSize)
	if nblocks == 0 {
		nblocks = have
	}
	if have < nblocks {
		if err := f.Truncate(int64(nblocks) * BlockSize); err != nil {
			f.Close()
			return nil, err
		}
	}
	if nblocks == 0 {
		f.Close()
		return nil, ErrDevRange
	}
	return &FileDev{f: f, nblocks: nblocks}, nil
}

// ReadBlock implements Dev.
func (d *FileDev) ReadBlock(no uint32, p []byte) error {
	if no >= d.nblocks {
		return ErrDevRange
	}
	_, err := d.f.ReadAt(p[:BlockSize], int64(no)*BlockSize)
	return err
}

// WriteBlock implements Dev.
func (d *FileDev) WriteBlock(no uint32, p []byte) error {
	if no >= d.nblocks {
		return ErrDevRange
	}
	_, err := d.f.WriteAt(p[:BlockSize], int64(no)*BlockSize)
	return err
}

// Sync implements Dev.
func (d *FileDev) Sync() error { return d.f.Sync() }

// Blocks implements Dev.
func (d *FileDev) Blocks() uint32 { return d.nblocks }

// Close implements Dev.
func (d *FileDev) Close() error { return d.f.Close() }

// CrashDev wraps a device with a deterministic kill switch: every WriteBlock
// is a hit on the blockfs.crash fault site, and when the armed plan fires the
// write is *lost* and the device goes permanently dead — the simulation of
// power failing mid-write. Because every journal and write-back block goes
// through WriteBlock, arming nth=k enumerates crash points over the exact
// ordinal sequence of device mutations, which is what lets the crash storm
// kill the image at every journal ordinal deterministically.
type CrashDev struct {
	dev  Dev
	site *fault.Site

	mu     sync.Mutex
	dead   bool
	writes uint64
}

// NewCrashDev wraps dev with the Default registry's blockfs.crash site.
func NewCrashDev(dev Dev) *CrashDev {
	return &CrashDev{dev: dev, site: siteCrash}
}

// Writes returns how many WriteBlock attempts the device has seen (including
// the one that killed it); a golden run's total is the crash storm's ordinal
// space.
func (d *CrashDev) Writes() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes
}

// Dead reports whether the kill switch has fired.
func (d *CrashDev) Dead() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dead
}

// ReadBlock implements Dev.
func (d *CrashDev) ReadBlock(no uint32, p []byte) error {
	d.mu.Lock()
	dead := d.dead
	d.mu.Unlock()
	if dead {
		return ErrCrashed
	}
	return d.dev.ReadBlock(no, p)
}

// WriteBlock implements Dev.
func (d *CrashDev) WriteBlock(no uint32, p []byte) error {
	d.mu.Lock()
	if d.dead {
		d.mu.Unlock()
		return ErrCrashed
	}
	d.writes++
	if d.site.Hit(0) {
		d.dead = true
		d.mu.Unlock()
		return ErrCrashed
	}
	d.mu.Unlock()
	return d.dev.WriteBlock(no, p)
}

// Sync implements Dev.
func (d *CrashDev) Sync() error {
	d.mu.Lock()
	dead := d.dead
	d.mu.Unlock()
	if dead {
		return ErrCrashed
	}
	return d.dev.Sync()
}

// Blocks implements Dev.
func (d *CrashDev) Blocks() uint32 { return d.dev.Blocks() }

// Close implements Dev.
func (d *CrashDev) Close() error { return d.dev.Close() }
