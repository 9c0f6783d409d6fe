package procfs2_test

import (
	"encoding/hex"
	"testing"

	"repro/internal/kernel"
	"repro/internal/procfs"
	"repro/internal/procfs2"
	"repro/internal/types"
	"repro/internal/vcpu"
)

// TestEncodingsGolden pins the status, psinfo, map, cred and usage file
// formats to golden bytes: a codec change that moves a field, widens one
// or reorders a length prefix fails here even if it still round-trips.
func TestEncodingsGolden(t *testing.T) {
	st := kernel.ProcStatus{
		Flags: 0x11, Why: kernel.StopWhy(3), What: 17, CurSig: -1,
		Pid: 42, PPid: 1, Pgrp: 42, Sid: 7, LWPID: 2, NLWP: 3,
		SigPend: types.SigSet{0x8000000000000001, 2},
		SigHold: types.SigSet{3, 0xFFFF},
		Reg: vcpu.Regs{R: [8]uint32{1, 2, 3, 4, 5, 6, 7, 0xDEADBEEF},
			PC: 0x80000010, SP: 0x7FFF7FF0, PSW: 0x5},
		Syscall: 4, SysArgs: [6]uint32{9, 8, 7, 6, 5, 4},
		Instret: 123456789, UTime: 11, STime: -2,
		BrkBase: 0x80010000, BrkSize: 0x1000, StkBase: 0x7FFF0000, StkSize: 0x8000,
		VSize: 1 << 33,
	}
	info := kernel.PSInfo{Pid: 42, PPid: 1, Pgrp: 42, Sid: 7, UID: 100, GID: 10,
		State: 'S', Nice: -3, VSize: 65536, Time: 12, Start: 99, NLWP: 2,
		Comm: "worker", Args: "worker -n 3"}
	maps := []procfs2.MapEntry{
		{Vaddr: 0x80000000, Size: 0x2000, Off: 0, Prot: 5, Kind: 1, Name: "/bin/worker"},
		{Vaddr: 0x7FFF0000, Size: 0x8000, Off: -1, Prot: 3, Shared: true, Kind: 4},
	}
	cred := types.Cred{RUID: 100, EUID: 0, SUID: 0, RGID: 10, EGID: 10, SGID: -1, Groups: []int{10, 20, 30}}
	usage := procfs.PrUsage{
		Usage: kernel.Usage{UserTicks: 1, SysTicks: 2, Syscalls: 3, Faults: 4,
			Signals: 5, ForkedKids: 6, VolCtx: 7, InvolCtx: 8},
		MinorFaults: 9, COWFaults: 10, WatchRecover: 11, StackGrows: -12,
	}
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"status", procfs2.EncodeStatus(st), "000000110000000300000011ffffffff0000002a000000010000002a000000070000000200000003800000000000000100000000000000020000000000000003000000000000ffff00000001000000020000000300000004000000050000000600000007deadbeef800000107fff7ff0000000050000000400000009000000080000000700000006000000050000000400000000075bcd15000000000000000bfffffffffffffffe80010000000010007fff0000000080000000000200000000"},
		{"psinfo", procfs2.EncodePSInfo(info), "0000002a000000010000002a00000007000000640000000a00000053fffffffd0000000000010000000000000000000c00000000000000630000000200000006776f726b65720000000b776f726b6572202d6e2033"},
		{"map", procfs2.EncodeMap(maps), "00000002800000000000200000000000000000000000000500000000000000010000000b2f62696e2f776f726b65727fff000000008000ffffffffffffffff00000003000000010000000400000000"},
		{"cred", procfs2.EncodeCred(cred), "0000006400000000000000000000000a0000000affffffff000000030000000a000000140000001e"},
		{"usage", procfs2.EncodeUsage(usage), "000000000000000100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000bfffffffffffffff4"},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s encoding\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
