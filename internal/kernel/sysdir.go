package kernel

import "repro/internal/vfs"

// getdents(2): directory reading for user programs. Each entry is a
// fixed-size 64-byte record — a NUL-padded name (60 bytes), a type byte
// (0 regular, 1 directory, 2 process, 3 fifo), and 3 pad bytes. The file
// offset counts entries.
//
// This call matters for the reproduction because it lets simulated programs
// traverse /proc and /procx themselves: a program inside the system can read
// another process's psinfo file through the restructured interface with
// nothing but open/read — while the ioctl-based flat interface is beyond
// reach of a plain binary interface, exactly the contrast the paper's
// proposed restructuring draws.

// DirentSize is the size of one getdents record.
const DirentSize = 64

// direntName is the length of the name field.
const direntName = 60

func sysGetdents(k *Kernel, l *LWP) sysResult {
	p := l.Proc
	f, e := p.getFD(int(l.sysArgs[0]))
	if e != 0 {
		return rerr(e)
	}
	buf, n := l.sysArgs[1], int(l.sysArgs[2])
	if n < DirentSize {
		return rerr(EINVAL)
	}
	dir, ok := f.VN.(vfs.Dir)
	if !ok {
		return rerr(ENOTDIR)
	}
	ents, err := dir.VReadDir(p.Cred)
	if err != nil {
		return rerr(mapErr(err))
	}
	// f.Offset indexes the entry stream.
	idx := int(f.Offset)
	if idx >= len(ents) {
		return ret(0) // end of directory
	}
	// Build the records in the staging slice; every byte of each record is
	// written, so none of an earlier call's bytes shows through.
	cnt := min(n/DirentSize, len(ents)-idx)
	out := k.takeStage(cnt * DirentSize)
	defer k.putStage(out)
	for i := range cnt {
		rec := out[i*DirentSize : (i+1)*DirentSize]
		ent := &ents[idx+i]
		name := ent.Name
		if len(name) > direntName-1 {
			name = name[:direntName-1]
		}
		clear(rec[copy(rec, name):])
		switch ent.Attr.Type {
		case vfs.VDIR:
			rec[direntName] = 1
		case vfs.VPROC:
			rec[direntName] = 2
		case vfs.VFIFO:
			rec[direntName] = 3
		}
	}
	if e := k.copyout(l, buf, out); e != 0 {
		return rerr(e)
	}
	f.Offset = int64(idx + cnt)
	return ret(uint32(len(out)))
}
