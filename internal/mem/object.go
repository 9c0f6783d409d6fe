// Package mem implements the SVR4 Virtual Memory model the paper builds on:
// a process executes in a virtual address space consisting of a number of
// memory mappings, each with a virtual address, a length, and permission
// flags. Mappings may be private (copy-on-write) or shared (write-through to
// the mapped object). The traditional text, data and stack segments are
// subsumed by these general notions, exactly as described in the paper.
//
// The package also implements the as_fault-style page materialization that
// makes /proc I/O possible ("all that is necessary for inter-process I/O is
// for the controlling process to apply as_fault to the address space of the
// target process ... and copy the data"), and page-protection based data
// watchpoints for the paper's proposed generalized watchpoint facility.
package mem

import (
	"fmt"
	"sync"
)

// Object is a backing store for a memory mapping — generally a file, or a
// suitably-behaving anonymous object provided by the system for segments
// such as bss and stack.
type Object interface {
	// ObjName identifies the object (a path for files, "[anon]" otherwise).
	ObjName() string
	// ObjSize is the current length of the object in bytes. Reads beyond
	// the size yield zeros.
	ObjSize() int64
	// ReadObj fills p from the object at off, zero-filling beyond its size.
	// It must write every byte of p: copy-on-write fills recycled page
	// frames, whose old contents would otherwise show through.
	ReadObj(p []byte, off int64)
	// WriteObj stores p into the object at off, growing it if necessary.
	// It is used by shared mappings; objects that cannot be written return
	// an error.
	WriteObj(p []byte, off int64) error
}

// Anon is a sparse, page-granular anonymous memory object. It backs shared
// anonymous mappings (e.g. System V style shared memory). Private anonymous
// mappings need no object at all: their pages live in the mapping itself.
type Anon struct {
	name     string
	pagesize int

	mu    sync.Mutex
	pages map[int64][]byte
	size  int64
}

// NewAnon returns an anonymous object with the given page size.
func NewAnon(name string, pagesize int) *Anon {
	if name == "" {
		name = "[anon]"
	}
	return &Anon{name: name, pagesize: pagesize, pages: make(map[int64][]byte)}
}

// ObjName implements Object.
func (a *Anon) ObjName() string { return a.name }

// ObjSize implements Object.
func (a *Anon) ObjSize() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.size
}

// ReadObj implements Object.
func (a *Anon) ReadObj(p []byte, off int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for n := 0; n < len(p); {
		pg := off / int64(a.pagesize) * int64(a.pagesize)
		po := int(off - pg)
		chunk := a.pagesize - po
		if chunk > len(p)-n {
			chunk = len(p) - n
		}
		if page, ok := a.pages[pg]; ok {
			copy(p[n:n+chunk], page[po:po+chunk])
		} else {
			for i := n; i < n+chunk; i++ {
				p[i] = 0
			}
		}
		n += chunk
		off += int64(chunk)
	}
}

// WriteObj implements Object.
func (a *Anon) WriteObj(p []byte, off int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for n := 0; n < len(p); {
		pg := off / int64(a.pagesize) * int64(a.pagesize)
		po := int(off - pg)
		chunk := a.pagesize - po
		if chunk > len(p)-n {
			chunk = len(p) - n
		}
		page, ok := a.pages[pg]
		if !ok {
			page = make([]byte, a.pagesize)
			a.pages[pg] = page
		}
		copy(page[po:po+chunk], p[n:n+chunk])
		n += chunk
		off += int64(chunk)
	}
	if end := off; end > a.size {
		a.size = end
	}
	return nil
}

var _ Object = (*Anon)(nil)

// ByteObject is a read-only Object over a byte slice; useful in tests and for
// immutable executable images.
type ByteObject struct {
	Name string
	Data []byte
}

// ObjName implements Object.
func (b *ByteObject) ObjName() string { return b.Name }

// ObjSize implements Object.
func (b *ByteObject) ObjSize() int64 { return int64(len(b.Data)) }

// ReadObj implements Object.
func (b *ByteObject) ReadObj(p []byte, off int64) {
	for i := range p {
		p[i] = 0
	}
	if off < int64(len(b.Data)) {
		copy(p, b.Data[off:])
	}
}

// WriteObj implements Object; ByteObjects are read-only.
func (b *ByteObject) WriteObj(p []byte, off int64) error {
	return fmt.Errorf("mem: object %s is read-only", b.Name)
}

// ObjBytes implements RevBytes: the data is immutable, so the revision is
// constant and pages over it may be frame-cached indefinitely. The slice is
// cut at its length: Data's spare capacity is the caller's and need not be
// zero, so the page straddling the end is a padded copy.
func (b *ByteObject) ObjBytes() ([]byte, uint64) { return b.Data[:len(b.Data):len(b.Data)], 0 }

// ObjRev implements RevBytes.
func (b *ByteObject) ObjRev() uint64 { return 0 }

var (
	_ Object   = (*ByteObject)(nil)
	_ RevBytes = (*ByteObject)(nil)
)
