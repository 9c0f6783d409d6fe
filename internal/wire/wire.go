// Package wire is the byte codec every external format of the system is
// built on: rfs requests and responses and their ioctl operands, the
// restructured /proc files and control messages, replay artifacts, xout
// executables, core files and the trace counters page.
//
// A Cursor appends values to a byte slice, or reads them back in order.
// Integers are big-endian; strings and byte strings carry a u32 length
// prefix. Reads keep the first failure in Err: once it is set, every read
// returns the zero value and leaves Off where it was, so a decoder reads a
// whole record straight through and checks Err once. Every count read from
// untrusted input goes through Count, which refuses a count the remaining
// bytes cannot hold before the caller allocates anything for it.
package wire

import (
	"encoding/binary"
	"errors"
)

// ErrShort reports input that ends before a value it promises: a
// truncated field, a length prefix past the end, or a count the remaining
// bytes cannot hold.
var ErrShort = errors.New("wire: truncated message")

// Cursor is an append-style encoder and a sequential decoder over B. The
// zero Cursor is an empty encoder; Cursor{B: msg} decodes msg.
type Cursor struct {
	B   []byte
	Off int   // next byte to read
	Err error // first read failure; sticky
}

// PutU8 appends v.
func (c *Cursor) PutU8(v uint8) { c.B = append(c.B, v) }

// PutU16 appends v, big-endian.
func (c *Cursor) PutU16(v uint16) { c.B = binary.BigEndian.AppendUint16(c.B, v) }

// PutU32 appends v, big-endian.
func (c *Cursor) PutU32(v uint32) { c.B = binary.BigEndian.AppendUint32(c.B, v) }

// PutU64 appends v, big-endian.
func (c *Cursor) PutU64(v uint64) { c.B = binary.BigEndian.AppendUint64(c.B, v) }

// PutStr appends s behind its u32 length.
func (c *Cursor) PutStr(s string) {
	c.PutU32(uint32(len(s)))
	c.B = append(c.B, s...)
}

// PutBytes appends p behind its u32 length.
func (c *Cursor) PutBytes(p []byte) {
	c.PutU32(uint32(len(p)))
	c.B = append(c.B, p...)
}

// Len returns the number of bytes not yet read.
func (c *Cursor) Len() int { return len(c.B) - c.Off }

func (c *Cursor) short() {
	if c.Err == nil {
		c.Err = ErrShort
	}
}

// U8 reads one byte.
func (c *Cursor) U8() uint8 {
	if c.Err != nil || c.Off >= len(c.B) {
		c.short()
		return 0
	}
	v := c.B[c.Off]
	c.Off++
	return v
}

// U16 reads a big-endian u16.
func (c *Cursor) U16() uint16 {
	if c.Err != nil || len(c.B)-c.Off < 2 {
		c.short()
		return 0
	}
	v := binary.BigEndian.Uint16(c.B[c.Off:])
	c.Off += 2
	return v
}

// U32 reads a big-endian u32.
func (c *Cursor) U32() uint32 {
	if c.Err != nil || len(c.B)-c.Off < 4 {
		c.short()
		return 0
	}
	v := binary.BigEndian.Uint32(c.B[c.Off:])
	c.Off += 4
	return v
}

// U64 reads a big-endian u64.
func (c *Cursor) U64() uint64 {
	if c.Err != nil || len(c.B)-c.Off < 8 {
		c.short()
		return 0
	}
	v := binary.BigEndian.Uint64(c.B[c.Off:])
	c.Off += 8
	return v
}

// I32 reads a u32 as a signed value.
func (c *Cursor) I32() int32 { return int32(c.U32()) }

// I64 reads a u64 as a signed value.
func (c *Cursor) I64() int64 { return int64(c.U64()) }

// Next reads n raw bytes and returns them as a subslice of B, capped so an
// append to it cannot overwrite what follows. It aliases the input: the
// caller must copy what it keeps beyond the life of B.
func (c *Cursor) Next(n int) []byte {
	if c.Err != nil || n < 0 || n > len(c.B)-c.Off {
		c.short()
		return nil
	}
	p := c.B[c.Off : c.Off+n : c.Off+n]
	c.Off += n
	return p
}

// View reads a length-prefixed byte string without copying it; like Next,
// the result aliases B.
func (c *Cursor) View() []byte { return c.Next(int(c.U32())) }

// Bytes reads a length-prefixed byte string into a fresh slice, nil when
// the string is empty.
func (c *Cursor) Bytes() []byte { return append([]byte(nil), c.View()...) }

// Str reads a length-prefixed string.
func (c *Cursor) Str() string { return string(c.View()) }

// StrAs reads a length-prefixed string into a field that may already hold
// it: an equal string is kept, not allocated again. A snapshot decoded
// into a reused record table mostly finds each record's names unchanged.
func (c *Cursor) StrAs(old string) string {
	b := c.View()
	if string(b) == old {
		return old
	}
	return string(b)
}

// Count reads a u32 record count and fails with ErrShort, returning 0,
// unless the remaining bytes can hold that many records of at least min
// bytes each (min > 0). A decoder sizes its allocation from the result, so
// a hostile count costs nothing before it is refused.
func (c *Cursor) Count(min int) int {
	n := int64(c.U32())
	if n*int64(min) > int64(c.Len()) {
		c.short()
		return 0
	}
	return int(n)
}
