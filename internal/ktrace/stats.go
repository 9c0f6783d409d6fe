package ktrace

import (
	"errors"

	"repro/internal/wire"
)

// MaxSysHist bounds the per-syscall histogram (comfortably above the
// kernel's MaxSysNum without importing it).
const MaxSysHist = 256

// Stats are the kernel-wide tracing counters served by the /proc counters
// page: how many events have been emitted and dropped across all rings,
// and a histogram of traced system call entries.
type Stats struct {
	Emitted uint64
	Dropped uint64
	PerSys  [MaxSysHist]uint64
}

// Count records one emitted event (dst rings it landed in update their own
// drop counts; AddDropped folds those in).
func (s *Stats) Count(kind Kind, what int32) {
	s.Emitted++
	if kind == KSysEntry && what >= 0 && what < MaxSysHist {
		s.PerSys[what]++
	}
}

// AddDropped folds ring evictions into the kernel-wide counter.
func (s *Stats) AddDropped(n uint64) { s.Dropped += n }

// EncodeStats serializes the counters page: emitted, dropped, then the
// non-zero histogram entries as (syscall, count) pairs. The encoding is
// deterministic (ascending syscall number).
func EncodeStats(s Stats) []byte {
	var w wire.Cursor
	w.PutU64(s.Emitted)
	w.PutU64(s.Dropped)
	n := uint32(0)
	for _, c := range s.PerSys {
		if c != 0 {
			n++
		}
	}
	w.PutU32(n)
	for num, c := range s.PerSys {
		if c != 0 {
			w.PutU32(uint32(num))
			w.PutU64(c)
		}
	}
	return w.B
}

// errBadStats reports a malformed counters page.
var errBadStats = errors.New("ktrace: malformed counters page")

// histEntry is the encoded size of one (syscall, count) pair.
const histEntry = 4 + 8

// DecodeStats parses the counters page.
func DecodeStats(b []byte) (Stats, error) {
	var s Stats
	r := wire.Cursor{B: b}
	s.Emitted, s.Dropped = r.U64(), r.U64()
	n := r.Count(histEntry)
	if r.Err != nil || n > MaxSysHist || r.Len() != n*histEntry {
		return s, errBadStats
	}
	for i := 0; i < n; i++ {
		num := r.U32()
		if num >= MaxSysHist {
			return s, errBadStats
		}
		s.PerSys[num] = r.U64()
	}
	return s, nil
}
