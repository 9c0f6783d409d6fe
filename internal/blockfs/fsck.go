package blockfs

import (
	"fmt"
	"sort"
)

// Fsck cross-checks every structural invariant of the mounted image and
// returns one message per violation (empty = clean). It is the crash
// storm's oracle: after any kill/remount/replay cycle the checker must come
// back empty. The invariants:
//
//   - the inode bitmap allocates exactly {ino 0} ∪ {reachable inodes}
//   - every reachable inode is referenced exactly nlink (= 1) times — no
//     orphans, no duplicate directory references, no cycles
//   - a file's zones are non-sparse: zone i is nonzero iff i < ceil(size/BS),
//     every zone lies in the data region, and the indirect block exists iff
//     the file reaches past the direct zones
//   - no block is claimed by two owners (file zones and indirect blocks)
//   - the zone bitmap allocates exactly the claimed blocks
//   - directory sizes are whole slots and every entry names a valid inode
func (fs *FS) Fsck() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var bad []string
	badf := func(format string, args ...interface{}) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}

	refs := map[uint32]int{}       // reachable ino -> reference count
	claimed := map[uint32]uint32{} // block -> owning ino
	inodes := map[uint32]dinode{}  // reachable ino -> record
	queue := []uint32{RootIno}
	refs[RootIno] = 1

	claim := func(owner, no uint32) {
		if no < fs.sb.dataStart || no >= fs.sb.nblocks {
			badf("ino %d claims block %d outside the data region", owner, no)
			return
		}
		if prev, dup := claimed[no]; dup {
			badf("block %d claimed by both ino %d and ino %d", no, prev, owner)
			return
		}
		claimed[no] = owner
	}

	for len(queue) > 0 {
		ino := queue[0]
		queue = queue[1:]
		if _, done := inodes[ino]; done {
			continue
		}
		if ino == 0 || ino > fs.sb.ninodes {
			badf("reference to out-of-range ino %d", ino)
			continue
		}
		di, err := fs.readInode(ino)
		if err != nil {
			badf("ino %d: unreadable: %v", ino, err)
			continue
		}
		inodes[ino] = di
		if di.typ != typeReg && di.typ != typeDir {
			badf("ino %d: reachable but type %d", ino, di.typ)
			continue
		}
		nz := uint32((di.size + BlockSize - 1) / BlockSize)
		if di.size > MaxFileSize {
			badf("ino %d: size %d exceeds maximum", ino, di.size)
			continue
		}
		for i := uint32(0); i < NDirect+ptrsPerBlock; i++ {
			var z uint32
			if i < NDirect {
				z = di.zones[i]
			} else if di.ind == 0 {
				break
			} else {
				z, err = fs.zoneAt(&di, i)
				if err != nil {
					badf("ino %d: indirect block unreadable: %v", ino, err)
					break
				}
			}
			switch {
			case i < nz && z == 0:
				badf("ino %d: zone %d missing below size %d", ino, i, di.size)
			case i >= nz && z != 0:
				badf("ino %d: zone %d=%d beyond size %d", ino, i, z, di.size)
			case z != 0:
				claim(ino, z)
			}
		}
		if di.ind != 0 {
			if nz <= NDirect {
				badf("ino %d: indirect block %d but only %d zones", ino, di.ind, nz)
			}
			claim(ino, di.ind)
		} else if nz > NDirect {
			badf("ino %d: %d zones but no indirect block", ino, nz)
		}
		if di.typ == typeDir {
			if di.size%DirentSize != 0 {
				badf("ino %d: directory size %d not slot-aligned", ino, di.size)
				continue
			}
			_ = fs.dirScan(&di, func(off uint64, child uint32, nb []byte) bool {
				if name := string(nb); !validName(name) {
					badf("ino %d: entry %q at %d has invalid name", ino, name, off)
				}
				refs[child]++
				if refs[child] == 1 {
					queue = append(queue, child)
				}
				return false
			})
		}
	}

	for ino, n := range refs {
		di, ok := inodes[ino]
		if !ok {
			continue // already reported (out of range / unreadable)
		}
		if int(di.nlink) != n {
			badf("ino %d: nlink %d but %d references", ino, di.nlink, n)
		}
	}

	// Bitmap cross-checks: the allocated sets must equal the reachable sets.
	ibm, err := fs.readBitmap(fs.sb.ibmStart, fs.sb.ibmBlocks, fs.sb.ninodes+1)
	if err != nil {
		badf("inode bitmap unreadable: %v", err)
	} else {
		if !ibm[0] {
			badf("inode bitmap: reserved bit 0 clear")
		}
		for ino := uint32(1); ino <= fs.sb.ninodes; ino++ {
			_, reachable := inodes[ino]
			if ibm[ino] && !reachable {
				badf("ino %d: allocated but unreachable", ino)
			}
			if !ibm[ino] && reachable {
				badf("ino %d: reachable but not allocated", ino)
			}
		}
	}
	zbm, err := fs.readBitmap(fs.sb.zbmStart, fs.sb.zbmBlocks, fs.sb.nblocks-fs.sb.dataStart)
	if err != nil {
		badf("zone bitmap unreadable: %v", err)
	} else {
		for bit := uint32(0); bit < fs.sb.nblocks-fs.sb.dataStart; bit++ {
			no := fs.sb.dataStart + bit
			_, used := claimed[no]
			if zbm[bit] && !used {
				badf("block %d: allocated but unclaimed", no)
			}
			if !zbm[bit] && used {
				badf("block %d: claimed by ino %d but not allocated", no, claimed[no])
			}
		}
	}
	sort.Strings(bad)
	return bad
}

// readBitmap decodes a bitmap region into a bool slice of nbits entries.
func (fs *FS) readBitmap(start, blocks, nbits uint32) ([]bool, error) {
	out := make([]bool, nbits)
	for rel := uint32(0); rel < blocks; rel++ {
		b, err := fs.c.get(start+rel, true)
		if err != nil {
			return nil, err
		}
		base := rel * bitsPerBlock
		for i := base; i < base+bitsPerBlock && i < nbits; i++ {
			out[i] = b.data[(i-base)/8]&(1<<((i-base)%8)) != 0
		}
		fs.c.put(b)
	}
	return out, nil
}
