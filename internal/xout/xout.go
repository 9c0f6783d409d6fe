// Package xout defines the executable file format of the simulated system —
// the analogue of the SVR4 a.out/ELF. An xout image carries a text segment,
// an initialized data segment, a bss size, an entry point, a list of shared
// libraries to map at exec time, and a symbol table (so debuggers can resolve
// names, and so PIOCOPENM — which hands a debugger a file descriptor for the
// mapped object — is useful for finding symbol tables without pathnames).
//
// The package also fixes the address-space layout conventions shared by the
// assembler and the kernel's exec: where text, data, stack and shared
// libraries are placed. The layout follows the paper's Figure 2: the a.out
// text at 0x80000000 and shared libraries at 0xC0000000 and up.
package xout

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/wire"
)

// Address-space layout conventions.
const (
	TextBase   = 0x80000000 // a.out text mapping base
	SegAlign   = 0x8000     // alignment between text and data mappings (32K)
	StackTop   = 0x7FFF8000 // first address above the initial stack mapping
	StackInit  = 0x8000     // initial stack mapping size (grows down)
	StackLimit = 0x7F000000 // lowest address the stack may grow to
	LibBase    = 0xC0000000 // first shared-library mapping base
	LibStride  = 0x01000000 // spacing between shared libraries
)

// Magic identifies an xout image.
var Magic = [4]byte{'X', 'O', 'U', 'T'}

// Version is the current format version.
const Version = 1

// Sym is a symbol-table entry: a label and its virtual address.
type Sym struct {
	Name  string
	Value uint32
}

// File is a parsed (or to-be-written) executable image.
type File struct {
	Entry   uint32   // initial program counter
	Text    []byte   // machine instructions, mapped read/exec at TextBase
	Data    []byte   // initialized data, mapped read/write at DataBase()
	BSSSize uint32   // zero-filled break segment placed after data
	Libs    []string // shared libraries to map (names under /lib)
	Syms    []Sym    // symbol table
}

// DataBase returns the virtual address of the data mapping: the text base
// plus the text length rounded up to the segment alignment.
func (f *File) DataBase() uint32 {
	return TextBase + roundUp(uint32(len(f.Text)), SegAlign)
}

// BSSBase returns the virtual address of the break (bss) mapping.
func (f *File) BSSBase() uint32 {
	return f.DataBase() + roundUp(uint32(len(f.Data)), SegAlign)
}

func roundUp(n, align uint32) uint32 {
	if n == 0 {
		return align
	}
	return (n + align - 1) &^ (align - 1)
}

// Lookup finds a symbol by name.
func (f *File) Lookup(name string) (uint32, bool) {
	for _, s := range f.Syms {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}

// SymAt returns the name of the symbol with the greatest value <= addr, plus
// the offset from it — the usual "func+0x10" debugger rendering.
func (f *File) SymAt(addr uint32) (string, uint32) {
	best := ""
	var bestVal uint32
	for _, s := range f.Syms {
		if s.Value <= addr && (best == "" || s.Value > bestVal) {
			best, bestVal = s.Name, s.Value
		}
	}
	if best == "" {
		return "", 0
	}
	return best, addr - bestVal
}

// Marshal serializes the image.
func (f *File) Marshal() []byte {
	w := wire.Cursor{B: append([]byte(nil), Magic[:]...)}
	for _, v := range [...]uint32{Version, f.Entry, uint32(len(f.Text)), uint32(len(f.Data)),
		f.BSSSize, uint32(len(f.Libs)), uint32(len(f.Syms))} {
		w.PutU32(v)
	}
	for _, l := range f.Libs {
		w.PutStr(l)
	}
	for _, s := range f.Syms {
		w.PutStr(s.Name)
		w.PutU32(s.Value)
	}
	w.B = append(w.B, f.Text...)
	return append(w.B, f.Data...)
}

// ErrBadMagic reports that a file is not an xout image; exec returns the
// equivalent of ENOEXEC for it.
var ErrBadMagic = errors.New("xout: bad magic")

// Unmarshal parses an image.
func Unmarshal(b []byte) (*File, error) {
	if len(b) < 4 || [4]byte(b) != Magic {
		return nil, ErrBadMagic
	}
	r := &wire.Cursor{B: b, Off: 4}
	if ver := r.U32(); r.Err == nil && ver != Version {
		return nil, fmt.Errorf("xout: unsupported version %d", ver)
	}
	f := &File{}
	f.Entry = r.U32()
	textLen := int(r.U32())
	dataLen := int(r.U32())
	f.BSSSize = r.U32()
	// A library is at least its name's length word, a symbol that and its
	// value.
	nLibs := r.Count(4)
	nSyms := r.Count(8)
	if nLibs > 1024 || nSyms > 1<<20 {
		return nil, errors.New("xout: unreasonable table sizes")
	}
	for i := 0; i < nLibs; i++ {
		f.Libs = append(f.Libs, r.Str())
	}
	for i := 0; i < nSyms; i++ {
		f.Syms = append(f.Syms, Sym{Name: r.Str(), Value: r.U32()})
	}
	f.Text = bytes.Clone(r.Next(textLen))
	f.Data = bytes.Clone(r.Next(dataLen))
	if r.Err != nil {
		return nil, fmt.Errorf("xout: %w", r.Err)
	}
	return f, nil
}
