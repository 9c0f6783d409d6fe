package wire

import (
	"bytes"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var c Cursor
	c.PutU8(0xAB)
	c.PutU16(0xBEEF)
	c.PutU32(0xDEADBEEF)
	c.PutU64(1<<63 | 5)
	c.PutU32(uint32(0xFFFFFFFE)) // -2
	c.PutStr("hello")
	c.PutBytes([]byte{1, 2, 3})
	c.PutBytes(nil)
	want := []byte{0xAB, 0xBE, 0xEF, 0xDE, 0xAD, 0xBE, 0xEF,
		0x80, 0, 0, 0, 0, 0, 0, 5, 0xFF, 0xFF, 0xFF, 0xFE,
		0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o', 0, 0, 0, 3, 1, 2, 3, 0, 0, 0, 0}
	if !bytes.Equal(c.B, want) {
		t.Fatalf("encoded % x\nwant    % x", c.B, want)
	}
	r := Cursor{B: c.B}
	if r.U8() != 0xAB || r.U16() != 0xBEEF || r.U32() != 0xDEADBEEF ||
		r.U64() != 1<<63|5 || r.I32() != -2 || r.Str() != "hello" {
		t.Fatal("scalar or string mismatch")
	}
	if p := r.Bytes(); !bytes.Equal(p, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", p)
	}
	if p := r.Bytes(); p != nil {
		t.Fatalf("empty Bytes = %#v, want nil", p)
	}
	if r.Err != nil || r.Len() != 0 {
		t.Fatalf("err %v, %d bytes left", r.Err, r.Len())
	}
}

// The first failure sticks: a read past the end sets ErrShort, and every
// later read returns zero without moving the offset, even one that would
// fit.
func TestFirstErrorSticks(t *testing.T) {
	c := Cursor{B: []byte{0, 0, 0, 7, 1, 2}}
	if c.U32() != 7 {
		t.Fatal("first read")
	}
	if v := c.U64(); v != 0 || c.Err != ErrShort || c.Off != 4 {
		t.Fatalf("short read: v=%d err=%v off=%d", v, c.Err, c.Off)
	}
	if v := c.U8(); v != 0 || c.Off != 4 {
		t.Fatalf("read after failure: v=%d off=%d", v, c.Off)
	}
	if c.U16() != 0 || c.Str() != "" || c.Next(1) != nil || c.Count(1) != 0 || c.Off != 4 {
		t.Fatal("reads after failure must return zero and not advance")
	}
	// A length prefix past the end fails the same way.
	c = Cursor{B: []byte{0, 0, 0, 9, 'a'}}
	if s := c.Str(); s != "" || c.Err != ErrShort {
		t.Fatalf("overlong string: %q %v", s, c.Err)
	}
	if c := (Cursor{B: []byte{1}}); c.Next(-1) != nil || c.Err != ErrShort {
		t.Fatal("negative Next accepted")
	}
}

// Count refuses a count the remaining bytes cannot hold at the record's
// minimum size, and accepts one that fits exactly.
func TestCountBoundsRecords(t *testing.T) {
	for _, tc := range []struct {
		count, min, rest int
		ok               bool
	}{
		{3, 4, 12, true},
		{3, 4, 11, false},
		{0, 100, 0, true},
		{1 << 30, 8, 64, false},
		{0xFFFFFFFF, 1 << 20, 16, false},
	} {
		var c Cursor
		c.PutU32(uint32(tc.count))
		c.B = append(c.B, make([]byte, tc.rest)...)
		r := Cursor{B: c.B}
		n := r.Count(tc.min)
		if tc.ok && (n != tc.count || r.Err != nil) {
			t.Errorf("%+v: got %d, %v", tc, n, r.Err)
		}
		if !tc.ok && (n != 0 || r.Err != ErrShort) {
			t.Errorf("%+v: accepted as %d", tc, n)
		}
	}
}

// View and Next alias the input; Bytes copies it.
func TestViewAliasesBytesCopies(t *testing.T) {
	msg := []byte{0, 0, 0, 2, 'a', 'b', 0, 0, 0, 2, 'c', 'd', 'e', 'f'}
	c := Cursor{B: msg}
	v := c.View()
	cp := c.Bytes()
	raw := c.Next(2)
	msg[4], msg[10], msg[12] = 'X', 'Y', 'Z'
	if string(v) != "Xb" || string(raw) != "Zf" {
		t.Fatalf("View/Next did not alias: %q %q", v, raw)
	}
	if string(cp) != "cd" {
		t.Fatalf("Bytes did not copy: %q", cp)
	}
	// An append to a view must not overwrite the bytes behind it.
	_ = append(v, '!')
	if msg[6] != 0 {
		t.Fatal("append to a view overwrote the message")
	}
	if old := "Xb"; (&Cursor{B: msg}).StrAs(old) != old {
		t.Fatal("StrAs lost an equal string")
	}
}

func TestReadsDoNotAllocate(t *testing.T) {
	var e Cursor
	e.PutU8(1)
	e.PutU16(2)
	e.PutU32(3)
	e.PutU64(4)
	e.PutStr("name")
	e.PutBytes([]byte("view"))
	e.PutU32(1)
	e.PutU32(9)
	msg := e.B
	allocs := testing.AllocsPerRun(100, func() {
		c := Cursor{B: msg}
		c.U8()
		c.U16()
		c.I32()
		c.I64()
		c.StrAs("name")
		c.View()
		c.Count(4)
		c.Next(4)
		if c.Err != nil || c.Len() != 0 {
			t.Fatal("decode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("reads allocated %.1f times per run", allocs)
	}
}
