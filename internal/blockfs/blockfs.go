package blockfs

import (
	"sort"
	"sync"

	"repro/internal/types"
	"repro/internal/vfs"
)

// FS is one mounted block file system. All operations serialize on mu — the
// file system is a leaf under the kernel's lock hierarchy and is also driven
// directly by host-side clients, so its own lock is what makes SMP access
// safe. Every mutation runs as one journal transaction (or, for large
// writes, a short sequence of them), so any crash point leaves the image
// recoverable to a transaction boundary.
type FS struct {
	mu  sync.Mutex
	dev Dev
	sb  super
	c   *cache
	now func() int64

	// Journal cursor: the next free journal block, the epoch the header
	// currently carries, and the next record sequence number.
	epoch uint64
	jpos  uint32
	jseq  uint64

	// Open-transaction state (journal.go): whether one is open, its
	// modified blocks in first-touch order, and the scratch block its
	// descriptor and commit record are built in.
	txOpen bool
	tx     []txEntry
	jbuf   []byte

	// nodes interns one bnode per live inode so vnode identity is stable;
	// gen counts reuses of each inode number so handles opened before an
	// unlink detect the stale reference instead of reading a recycled file.
	nodes map[uint32]*bnode
	gen   map[uint32]uint64

	root *bnode
}

// MountOptions tunes Mount.
type MountOptions struct {
	CacheSlots int          // buffer-cache slots (default DefaultCacheSlots)
	Now        func() int64 // mtime source (typically the simulated clock)
}

// Mount opens the file system on dev, replaying any committed journal
// records first — the crash-recovery path, run unconditionally so a clean
// mount and a post-crash mount are the same code.
func Mount(dev Dev, opts ...MountOptions) (*FS, error) {
	var o MountOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.Now == nil {
		o.Now = func() int64 { return 0 }
	}
	buf := make([]byte, BlockSize)
	if err := dev.ReadBlock(0, buf); err != nil {
		return nil, err
	}
	sb, err := decodeSuper(buf)
	if err != nil {
		return nil, err
	}
	if sb.nblocks != dev.Blocks() {
		return nil, ErrCorrupt
	}
	epoch, err := replayJournal(dev, sb)
	if err != nil {
		return nil, err
	}
	fs := &FS{
		dev:   dev,
		sb:    sb,
		c:     newCache(dev, o.CacheSlots),
		now:   o.Now,
		epoch: epoch,
		jpos:  sb.jStart + 1,
		jseq:  1,
		jbuf:  make([]byte, BlockSize),
		nodes: make(map[uint32]*bnode),
		gen:   make(map[uint32]uint64),
	}
	fs.root = fs.node(RootIno)
	return fs, nil
}

// Root returns the root directory vnode, for vfs mounting.
func (fs *FS) Root() vfs.Dir { return fs.root }

// Sync checkpoints the file system: every committed change is flushed home
// and the journal is emptied. It is the vnode-layer VSync and the handle
// HSync; sync(2) and fsync(2) both land here.
func (fs *FS) Sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.checkpoint()
}

// node interns the bnode for ino.
func (fs *FS) node(ino uint32) *bnode {
	if n, ok := fs.nodes[ino]; ok {
		return n
	}
	n := &bnode{fs: fs, ino: ino}
	fs.nodes[ino] = n
	return n
}

// --- inode access (all under fs.mu) ---

func (fs *FS) inodeLoc(ino uint32) (blk uint32, off int) {
	return fs.sb.itStart + (ino-1)/inodesPerBlock, int((ino-1)%inodesPerBlock) * InodeSize
}

// readInode loads ino's on-disk record.
func (fs *FS) readInode(ino uint32) (dinode, error) {
	if ino == 0 || ino > fs.sb.ninodes {
		return dinode{}, vfs.ErrStale
	}
	blk, off := fs.inodeLoc(ino)
	b, err := fs.c.get(blk, true)
	if err != nil {
		return dinode{}, err
	}
	di := decodeInode(b.data[off:])
	fs.c.put(b)
	return di, nil
}

// writeInode stores ino's record inside the open transaction.
func (fs *FS) writeInode(ino uint32, di dinode) error {
	blk, off := fs.inodeLoc(ino)
	b, err := fs.c.get(blk, true)
	if err != nil {
		return err
	}
	fs.bmod(b)
	encodeInode(b.data[off:], di)
	fs.c.put(b)
	return nil
}

// --- bitmap allocation (inside a transaction) ---

// bmFind scans a bitmap region for the first clear bit below nbits and sets
// it. Returns the bit index, or vfs.ErrNoSpace when the region is full.
func (fs *FS) bmFind(start, blocks, nbits uint32) (uint32, error) {
	for rel := uint32(0); rel < blocks; rel++ {
		b, err := fs.c.get(start+rel, true)
		if err != nil {
			return 0, err
		}
		base := rel * bitsPerBlock
		for i, by := range b.data {
			if by == 0xff {
				continue
			}
			for bit := 0; bit < 8; bit++ {
				idx := base + uint32(i*8+bit)
				if idx >= nbits {
					fs.c.put(b)
					return 0, vfs.ErrNoSpace
				}
				if by&(1<<bit) == 0 {
					fs.bmod(b)
					b.data[i] |= 1 << bit
					fs.c.put(b)
					return idx, nil
				}
			}
		}
		fs.c.put(b)
	}
	return 0, vfs.ErrNoSpace
}

// bmClear clears one bit in a bitmap region.
func (fs *FS) bmClear(start, idx uint32) error {
	b, err := fs.c.get(start+idx/bitsPerBlock, true)
	if err != nil {
		return err
	}
	fs.bmod(b)
	b.data[(idx%bitsPerBlock)/8] &^= 1 << (idx % 8)
	fs.c.put(b)
	return nil
}

func (fs *FS) allocIno() (uint32, error) {
	return fs.bmFind(fs.sb.ibmStart, fs.sb.ibmBlocks, fs.sb.ninodes+1)
}

func (fs *FS) freeIno(ino uint32) error {
	return fs.bmClear(fs.sb.ibmStart, ino)
}

// allocZone allocates a data block and returns its absolute block number.
func (fs *FS) allocZone() (uint32, error) {
	bit, err := fs.bmFind(fs.sb.zbmStart, fs.sb.zbmBlocks, fs.sb.nblocks-fs.sb.dataStart)
	if err != nil {
		return 0, err
	}
	return fs.sb.dataStart + bit, nil
}

func (fs *FS) freeZone(no uint32) error {
	return fs.bmClear(fs.sb.zbmStart, no-fs.sb.dataStart)
}

// --- zone addressing ---

// zoneAt returns the absolute block holding file zone idx, or 0.
func (fs *FS) zoneAt(di *dinode, idx uint32) (uint32, error) {
	if idx < NDirect {
		return di.zones[idx], nil
	}
	if di.ind == 0 {
		return 0, nil
	}
	b, err := fs.c.get(di.ind, true)
	if err != nil {
		return 0, err
	}
	z := le32(b.data, int(idx-NDirect)*4)
	fs.c.put(b)
	return z, nil
}

// setZone points file zone idx at blockno, allocating the indirect block on
// first use. Must run inside a transaction; the caller writes di back.
func (fs *FS) setZone(di *dinode, idx, blockno uint32) error {
	if idx < NDirect {
		di.zones[idx] = blockno
		return nil
	}
	if di.ind == 0 {
		ind, err := fs.allocZone()
		if err != nil {
			return err
		}
		b, err := fs.getZeroed(ind)
		if err != nil {
			return err
		}
		fs.c.put(b)
		di.ind = ind
	}
	b, err := fs.c.get(di.ind, true)
	if err != nil {
		return err
	}
	fs.bmod(b)
	put32(b.data, int(idx-NDirect)*4, blockno)
	fs.c.put(b)
	return nil
}

// getZeroed returns the buffer for a freshly allocated zone, zeroed and
// registered with the open transaction. The explicit zeroing matters: a
// freed zone's stale contents may still sit in the cache, and a reallocated
// zone must read as zeros everywhere the caller does not overwrite.
func (fs *FS) getZeroed(no uint32) (*cbuf, error) {
	b, err := fs.c.get(no, false)
	if err != nil {
		return nil, err
	}
	fs.bmod(b)
	for i := range b.data {
		b.data[i] = 0
	}
	return b, nil
}

// truncate frees every zone of di inside the open transaction.
func (fs *FS) truncate(di *dinode) error {
	nz := uint32((di.size + BlockSize - 1) / BlockSize)
	for i := uint32(0); i < nz; i++ {
		z, err := fs.zoneAt(di, i)
		if err != nil {
			return err
		}
		if z != 0 {
			if err := fs.freeZone(z); err != nil {
				return err
			}
		}
	}
	if di.ind != 0 {
		if err := fs.freeZone(di.ind); err != nil {
			return err
		}
	}
	di.zones = [NDirect]uint32{}
	di.ind = 0
	di.size = 0
	return nil
}

// --- directory access ---

// dirScan iterates a directory's entries, calling f with each live slot's
// byte offset, ino and name. The name aliases the cached block and is valid
// only during the call; f must not touch the cache, and returns true to
// stop. Every slot costs one cache get, free slots included, so the LRU
// order does not depend on which slots are live.
func (fs *FS) dirScan(di *dinode, f func(off uint64, ino uint32, name []byte) bool) error {
	for off := uint64(0); off < di.size; off += DirentSize {
		z, err := fs.zoneAt(di, uint32(off/BlockSize))
		if err != nil {
			return err
		}
		if z == 0 {
			return ErrCorrupt
		}
		b, err := fs.c.get(z, true)
		if err != nil {
			return err
		}
		slot := b.data[off%BlockSize:]
		stop := false
		if ino := le32(slot, 0); ino != 0 {
			stop = f(off, ino, direntName(slot))
		}
		fs.c.put(b)
		if stop {
			return nil
		}
	}
	return nil
}

// dirLookup finds name in di, returning its ino and slot offset.
func (fs *FS) dirLookup(di *dinode, name string) (uint32, uint64, error) {
	var foundIno uint32
	var foundOff uint64
	err := fs.dirScan(di, func(off uint64, ino uint32, n []byte) bool {
		if string(n) == name {
			foundIno, foundOff = ino, off
			return true
		}
		return false
	})
	if err != nil {
		return 0, 0, err
	}
	if foundIno == 0 {
		return 0, 0, vfs.ErrNotExist
	}
	return foundIno, foundOff, nil
}

// dirSetSlot rewrites the dirent at byte offset off inside the transaction.
func (fs *FS) dirSetSlot(di *dinode, off uint64, ino uint32, name string) error {
	z, err := fs.zoneAt(di, uint32(off/BlockSize))
	if err != nil {
		return err
	}
	if z == 0 {
		return ErrCorrupt
	}
	b, err := fs.c.get(z, true)
	if err != nil {
		return err
	}
	fs.bmod(b)
	encodeDirent(b.data[off%BlockSize:], ino, name)
	fs.c.put(b)
	return nil
}

// dirAddEntry writes {ino, name} into dirIno, reusing a freed slot or
// extending the directory by one slot (allocating a fresh zone at block
// boundaries). Runs inside a transaction.
func (fs *FS) dirAddEntry(dirIno uint32, di *dinode, ino uint32, name string) error {
	// Reuse the first freed slot.
	for off := uint64(0); off < di.size; off += DirentSize {
		z, err := fs.zoneAt(di, uint32(off/BlockSize))
		if err != nil {
			return err
		}
		if z == 0 {
			return ErrCorrupt
		}
		b, err := fs.c.get(z, true)
		if err != nil {
			return err
		}
		if le32(b.data, int(off%BlockSize)) == 0 {
			fs.bmod(b)
			encodeDirent(b.data[off%BlockSize:], ino, name)
			fs.c.put(b)
			return nil
		}
		fs.c.put(b)
	}
	// Append: allocate a zone when the new slot opens a block.
	off := di.size
	if off+DirentSize > uint64(NDirect+ptrsPerBlock)*BlockSize {
		return vfs.ErrNoSpace
	}
	zi := uint32(off / BlockSize)
	if off%BlockSize == 0 {
		z, err := fs.allocZone()
		if err != nil {
			return err
		}
		b, err := fs.getZeroed(z)
		if err != nil {
			return err
		}
		fs.c.put(b)
		if err := fs.setZone(di, zi, z); err != nil {
			return err
		}
	}
	di.size = off + DirentSize
	return fs.dirSetSlot(di, off, ino, name)
}

// --- the vnode type ---

// bnode is the vnode of one blockfs inode.
type bnode struct {
	fs  *FS
	ino uint32
}

func (fs *FS) attrOf(di dinode) vfs.Attr {
	t := vfs.VREG
	if di.typ == typeDir {
		t = vfs.VDIR
	}
	return vfs.Attr{
		Type: t, Mode: di.mode, UID: int(di.uid), GID: int(di.gid),
		Size: int64(di.size), MTime: int64(di.mtime), Nlink: int(di.nlink),
	}
}

// VAttr implements vfs.Vnode. Directory sizes report live entries, matching
// memfs, rather than the on-disk slot-array size.
func (n *bnode) VAttr() (vfs.Attr, error) {
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	di, err := n.fs.readInode(n.ino)
	if err != nil {
		return vfs.Attr{}, err
	}
	a := n.fs.attrOf(di)
	if di.typ == typeDir {
		live := int64(0)
		if err := n.fs.dirScan(&di, func(uint64, uint32, []byte) bool { live++; return false }); err != nil {
			return vfs.Attr{}, err
		}
		a.Size = live
	}
	return a, nil
}

// VOpen implements vfs.Vnode.
func (n *bnode) VOpen(flags int, c types.Cred) (vfs.Handle, error) {
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	di, err := n.fs.readInode(n.ino)
	if err != nil {
		return nil, err
	}
	isDir := di.typ == typeDir
	if isDir && flags&vfs.OWrite != 0 {
		return nil, vfs.ErrIsDir
	}
	var want uint16
	if flags&vfs.ORead != 0 {
		want |= 4
	}
	if flags&vfs.OWrite != 0 {
		want |= 2
	}
	if err := vfs.CheckAccess(n.fs.attrOf(di), c, want); err != nil {
		return nil, err
	}
	if flags&vfs.OTrunc != 0 && !isDir && di.size > 0 {
		err := n.fs.run(func() error {
			if err := n.fs.truncate(&di); err != nil {
				return err
			}
			di.mtime = uint64(n.fs.now())
			return n.fs.writeInode(n.ino, di)
		})
		if err != nil {
			return nil, err
		}
	}
	return &bhandle{fs: n.fs, ino: n.ino, gen: n.fs.gen[n.ino]}, nil
}

// VSync implements vfs.Syncer: sync(2) reaches every mounted blockfs root.
func (n *bnode) VSync() error { return n.fs.Sync() }

// SetMode implements the kernel's chmod hook. The interface carries no
// error return, so a failed transaction (injected EIO) leaves the mode
// unchanged; chmod under an I/O fault storm is best-effort by contract.
func (n *bnode) SetMode(mode uint16) {
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	di, err := n.fs.readInode(n.ino)
	if err != nil {
		return
	}
	_ = n.fs.run(func() error {
		di.mode = mode
		di.mtime = uint64(n.fs.now())
		return n.fs.writeInode(n.ino, di)
	})
}

// --- vfs.Dir ---

// VLookup implements vfs.Dir.
func (n *bnode) VLookup(name string, c types.Cred) (vfs.Vnode, error) {
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	di, err := n.fs.readInode(n.ino)
	if err != nil {
		return nil, err
	}
	if di.typ != typeDir {
		return nil, vfs.ErrNotDir
	}
	ino, _, err := n.fs.dirLookup(&di, name)
	if err != nil {
		return nil, err
	}
	return n.fs.node(ino), nil
}

// VReadDir implements vfs.Dir.
func (n *bnode) VReadDir(c types.Cred) ([]vfs.Dirent, error) {
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	di, err := n.fs.readInode(n.ino)
	if err != nil {
		return nil, err
	}
	if di.typ != typeDir {
		return nil, vfs.ErrNotDir
	}
	type ent struct {
		name string
		ino  uint32
	}
	var ents []ent
	if err := n.fs.dirScan(&di, func(_ uint64, ino uint32, name []byte) bool {
		ents = append(ents, ent{string(name), ino})
		return false
	}); err != nil {
		return nil, err
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].name < ents[j].name })
	out := make([]vfs.Dirent, 0, len(ents))
	for _, e := range ents {
		cdi, err := n.fs.readInode(e.ino)
		if err != nil {
			return nil, err
		}
		out = append(out, vfs.Dirent{Name: e.name, Attr: n.fs.attrOf(cdi)})
	}
	return out, nil
}

// --- vfs.DirWriter ---

// VCreate implements vfs.DirWriter.
func (n *bnode) VCreate(name string, mode uint16, c types.Cred) (vfs.Vnode, error) {
	ino, err := n.addChild(name, mode, c, typeReg)
	if err != nil {
		return nil, err
	}
	return n.fs.node(ino), nil
}

// VMkdir implements vfs.DirWriter.
func (n *bnode) VMkdir(name string, mode uint16, c types.Cred) (vfs.Dir, error) {
	ino, err := n.addChild(name, mode, c, typeDir)
	if err != nil {
		return nil, err
	}
	return n.fs.node(ino), nil
}

func (n *bnode) addChild(name string, mode uint16, c types.Cred, typ uint16) (uint32, error) {
	if !validName(name) {
		return 0, vfs.ErrInval
	}
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	di, err := n.fs.readInode(n.ino)
	if err != nil {
		return 0, err
	}
	if di.typ != typeDir {
		return 0, vfs.ErrNotDir
	}
	if err := vfs.CheckAccess(n.fs.attrOf(di), c, 2); err != nil {
		return 0, err
	}
	if _, _, err := n.fs.dirLookup(&di, name); err == nil {
		return 0, vfs.ErrExist
	} else if err != vfs.ErrNotExist {
		return 0, err
	}
	var ino uint32
	err = n.fs.run(func() error {
		var err error
		ino, err = n.fs.allocIno()
		if err != nil {
			return err
		}
		now := uint64(n.fs.now())
		if err := n.fs.writeInode(ino, dinode{
			typ: typ, mode: mode, nlink: 1,
			uid: int32(c.EUID), gid: int32(c.EGID), mtime: now,
		}); err != nil {
			return err
		}
		if err := n.fs.dirAddEntry(n.ino, &di, ino, name); err != nil {
			return err
		}
		di.mtime = now
		return n.fs.writeInode(n.ino, di)
	})
	if err != nil {
		return 0, err
	}
	return ino, nil
}

// VRemove implements vfs.DirWriter.
func (n *bnode) VRemove(name string, c types.Cred) error {
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	di, err := n.fs.readInode(n.ino)
	if err != nil {
		return err
	}
	if di.typ != typeDir {
		return vfs.ErrNotDir
	}
	if err := vfs.CheckAccess(n.fs.attrOf(di), c, 2); err != nil {
		return err
	}
	ino, off, err := n.fs.dirLookup(&di, name)
	if err != nil {
		return err
	}
	tdi, err := n.fs.readInode(ino)
	if err != nil {
		return err
	}
	if tdi.typ == typeDir {
		empty := true
		if err := n.fs.dirScan(&tdi, func(uint64, uint32, []byte) bool { empty = false; return true }); err != nil {
			return err
		}
		if !empty {
			return vfs.ErrBusy
		}
	}
	err = n.fs.run(func() error {
		if err := n.fs.dirSetSlot(&di, off, 0, ""); err != nil {
			return err
		}
		di.mtime = uint64(n.fs.now())
		if err := n.fs.writeInode(n.ino, di); err != nil {
			return err
		}
		if err := n.fs.truncate(&tdi); err != nil {
			return err
		}
		if err := n.fs.writeInode(ino, dinode{}); err != nil {
			return err
		}
		return n.fs.freeIno(ino)
	})
	if err != nil {
		return err
	}
	// In-core identity: handles opened on the old file go stale, and the
	// inode number is free for reuse under a fresh generation.
	n.fs.gen[ino]++
	delete(n.fs.nodes, ino)
	return nil
}

var (
	_ vfs.DirWriter = (*bnode)(nil)
	_ vfs.Syncer    = (*bnode)(nil)
)

// --- the open handle ---

// bhandle is the per-open state: the inode plus the generation it was opened
// under, so I/O after an unlink+reuse reports a stale descriptor rather than
// touching the recycled inode.
type bhandle struct {
	fs  *FS
	ino uint32
	gen uint64
}

func (h *bhandle) stale() bool { return h.fs.gen[h.ino] != h.gen }

// HRead implements vfs.Handle.
func (h *bhandle) HRead(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.stale() {
		return 0, vfs.ErrStale
	}
	di, err := h.fs.readInode(h.ino)
	if err != nil {
		return 0, err
	}
	if di.typ == typeDir {
		return 0, vfs.ErrIsDir
	}
	if off < 0 {
		return 0, vfs.ErrInval
	}
	if uint64(off) >= di.size {
		return 0, vfs.EOF
	}
	end := uint64(off) + uint64(len(p))
	if end > di.size {
		end = di.size
	}
	n := 0
	for pos := uint64(off); pos < end; {
		z, err := h.fs.zoneAt(&di, uint32(pos/BlockSize))
		if err != nil {
			return n, err
		}
		if z == 0 {
			return n, ErrCorrupt
		}
		b, err := h.fs.c.get(z, true)
		if err != nil {
			return n, err
		}
		c := copy(p[n:end-uint64(off)], b.data[pos%BlockSize:])
		h.fs.c.put(b)
		n += c
		pos += uint64(c)
	}
	return n, nil
}

// HWrite implements vfs.Handle. Large writes split into chunks of at most
// maxWriteZones zones, one transaction each; a failure mid-sequence returns
// the bytes made durable by the committed prefix, POSIX partial-write style.
func (h *bhandle) HWrite(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.stale() {
		return 0, vfs.ErrStale
	}
	di, err := h.fs.readInode(h.ino)
	if err != nil {
		return 0, err
	}
	if di.typ == typeDir {
		return 0, vfs.ErrIsDir
	}
	if off < 0 {
		return 0, vfs.ErrInval
	}
	end := uint64(off) + uint64(len(p))
	if end > MaxFileSize {
		return 0, vfs.ErrNoSpace
	}
	if len(p) == 0 {
		return 0, nil
	}
	// The affected zone range: every zone the data touches, plus any hole
	// zones between the current end of file and the write start (they must
	// exist, zero-filled, for the size invariant "zones cover ceil(size/BS)").
	zlo := uint32(off) / BlockSize
	if hole := uint32((di.size + BlockSize - 1) / BlockSize); di.size < uint64(off) && hole < zlo {
		zlo = hole
	}
	zhi := uint32((end - 1) / BlockSize)
	written := 0
	for z0 := zlo; z0 <= zhi; z0 += maxWriteZones {
		z1 := z0 + maxWriteZones - 1
		if z1 > zhi {
			z1 = zhi
		}
		var chunkBytes int
		err := h.fs.run(func() error {
			chunkBytes = 0
			for zi := z0; zi <= z1; zi++ {
				z, err := h.fs.zoneAt(&di, zi)
				if err != nil {
					return err
				}
				fresh := z == 0
				var b *cbuf
				if fresh {
					if z, err = h.fs.allocZone(); err != nil {
						return err
					}
					if err := h.fs.setZone(&di, zi, z); err != nil {
						return err
					}
					if b, err = h.fs.getZeroed(z); err != nil {
						return err
					}
				} else if b, err = h.fs.c.get(z, true); err != nil {
					return err
				}
				// The slice of p that lands in this zone, if any.
				zStart := uint64(zi) * BlockSize
				zEnd := zStart + BlockSize
				ws, we := uint64(off), end
				if ws < zStart {
					ws = zStart
				}
				if we > zEnd {
					we = zEnd
				}
				if ws < we {
					h.fs.bmod(b)
					copy(b.data[ws-zStart:], p[ws-uint64(off):we-uint64(off)])
					chunkBytes += int(we - ws)
				}
				h.fs.c.put(b)
			}
			// Size grows to the end of what this chunk covers (capped at
			// the write end), never shrinks.
			covered := uint64(z1+1) * BlockSize
			if covered > end {
				covered = end
			}
			if covered > di.size {
				di.size = covered
			}
			di.mtime = uint64(h.fs.now())
			return h.fs.writeInode(h.ino, di)
		})
		if err != nil {
			return written, err
		}
		written += chunkBytes
		// Reload: the committed image is the new baseline for the next chunk.
		if di, err = h.fs.readInode(h.ino); err != nil {
			return written, err
		}
	}
	return written, nil
}

// HIoctl implements vfs.Handle.
func (h *bhandle) HIoctl(cmd int, arg interface{}) error { return vfs.ErrNoIoctl }

// HClose implements vfs.Handle.
func (h *bhandle) HClose() error { return nil }

// HSync implements the kernel's fsync hook: a full checkpoint (this file's
// dirty blocks and everyone else's — the classic conservative fsync).
func (h *bhandle) HSync() error { return h.fs.Sync() }
