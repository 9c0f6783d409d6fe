package tools

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/procfs"
)

// The format strings ps and the fleet-usage sweep printed with fmt before
// they rendered with strconv appends. They are the oracle: every appended
// line must equal fmt's rendering of the same record byte for byte.
const (
	psHeaderFormat    = "%5s %5s %4s %4s %2s %8s %6s %s\n"
	psLineFormat      = "%5d %5d %4d %4d %2c %8d %6d %s\n"
	usageHeaderFormat = "%5s %-12s %6s %6s %8s %6s %6s %5s %5s %5s\n"
	usageLineFormat   = "%5d %-12s %6d %6d %8d %6d %6d %5d %5d %5d\n"
)

func TestListingHeadersMatchFmt(t *testing.T) {
	if want := fmt.Sprintf(psHeaderFormat,
		"PID", "PPID", "UID", "GID", "S", "VSZ", "TIME", "COMD"); psHeader != want {
		t.Fatalf("ps header %q, fmt renders %q", psHeader, want)
	}
	if want := fmt.Sprintf(usageHeaderFormat,
		"PID", "COMD", "UTIME", "STIME", "SYSCALLS", "FAULTS", "MINFLT", "COW", "VCTX", "ICTX"); usageHeader != want {
		t.Fatalf("usage header %q, fmt renders %q", usageHeader, want)
	}
}

// comms covers the string shapes %s and %-12s treat differently: empty,
// exactly and beyond the column width, multi-byte runes (fmt pads by rune
// count, not bytes) and invalid UTF-8 (each bad byte counts as one rune).
var comms = []string{
	"", "a", "parked17", "twelve_chars", "thirteen_char", "a-very-long-command-name",
	"héllo", "日本語のコマンド名です", "日本語のコマンド名ですよね", "🙂", "tab\there", "nul\x00byte",
	"\xff\xfe", "ok\xc3", "\x80" + strings.Repeat("é", 11),
}

// randInt draws a column value: mostly small, often negative, sometimes
// wider than any column, sometimes an extreme of its type.
func randInt(rng *rand.Rand) int64 {
	switch rng.Intn(8) {
	case 0:
		return -rng.Int63n(1000)
	case 1:
		return rng.Int63()
	case 2:
		return -rng.Int63()
	case 3:
		return []int64{0, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32, -1}[rng.Intn(6)]
	case 4:
		return rng.Int63n(1 << 40)
	default:
		return rng.Int63n(100000)
	}
}

func randComm(rng *rand.Rand) string {
	if rng.Intn(3) == 0 {
		return comms[rng.Intn(len(comms))]
	}
	b := make([]byte, rng.Intn(20))
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return string(b)
}

// TestAppendLinesMatchFmt renders 100k random records — plus every State
// byte and every fixed comm shape — through the append helpers and the
// original format strings.
func TestAppendLinesMatchFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const records = 100000
	var b []byte
	for i := 0; i < records+256+len(comms); i++ {
		info := kernel.PSInfo{
			Pid: int(randInt(rng)), PPid: int(randInt(rng)),
			UID: int(randInt(rng)), GID: int(randInt(rng)),
			State: byte(rng.Intn(256)),
			VSize: randInt(rng), Time: randInt(rng),
			Comm: randComm(rng),
		}
		if i >= records+256 {
			info.Comm = comms[i-records-256]
		} else if i >= records {
			info.State = byte(i - records)
		}
		b = appendPSLine(b[:0], &info)
		if want := fmt.Sprintf(psLineFormat, info.Pid, info.PPid, info.UID, info.GID,
			info.State, info.VSize, info.Time, info.Comm); string(b) != want {
			t.Fatalf("ps line for %+v:\n got %q\nwant %q", info, b, want)
		}

		var u procfs.PrUsage
		u.UserTicks, u.SysTicks, u.Syscalls = randInt(rng), randInt(rng), randInt(rng)
		u.Faults, u.MinorFaults, u.COWFaults = randInt(rng), randInt(rng), randInt(rng)
		u.VolCtx, u.InvolCtx = randInt(rng), randInt(rng)
		b = appendUsageLine(b[:0], &info, &u)
		if want := fmt.Sprintf(usageLineFormat, info.Pid, info.Comm, u.UserTicks,
			u.SysTicks, u.Syscalls, u.Faults, u.MinorFaults, u.COWFaults,
			u.VolCtx, u.InvolCtx); string(b) != want {
			t.Fatalf("usage line for %+v %+v:\n got %q\nwant %q", info, u, b, want)
		}
	}
}
