package repl

import (
	"encoding/binary"
	"fmt"
)

// Enc appends the fixed little-endian field layouts every control and
// session message uses — the same idiom as the internal/wal record
// encoders. Variable-length fields (strings, byte blobs, slices) carry
// a u32 count prefix.
type Enc struct{ B []byte }

func (e *Enc) U8(v uint8) { e.B = append(e.B, v) }

func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

func (e *Enc) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }
func (e *Enc) I64(v int64)  { e.U64(uint64(v)) }

// Len writes a u32 count prefix.
func (e *Enc) Len(n int) { e.B = binary.LittleEndian.AppendUint32(e.B, uint32(n)) }

func (e *Enc) Str(s string) {
	e.Len(len(s))
	e.B = append(e.B, s...)
}

func (e *Enc) Bytes(b []byte) {
	e.Len(len(b))
	e.B = append(e.B, b...)
}

// Dec consumes the layouts Enc produces, latching the first error
// instead of panicking on truncated or hostile input: every read after
// a failure returns the zero value, and Done reports the failure.
type Dec struct {
	b   []byte
	err error
}

// NewDec returns a decoder over payload.
func NewDec(payload []byte) Dec { return Dec{b: payload} }

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("repl: "+format, args...)
	}
}

// take consumes n bytes, or fails when fewer remain.
func (d *Dec) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.fail("truncated message: need %d bytes, have %d", n, len(d.b))
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *Dec) U8() uint8 {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

// Bool reads a flag byte; anything but 0 or 1 is corruption.
func (d *Dec) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.fail("flag byte %d", v)
	}
	return v == 1
}

func (d *Dec) U64() uint64 {
	if p := d.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (d *Dec) I64() int64 { return int64(d.U64()) }

// Len reads a u32 count prefix whose elements each take at least
// minSize (>= 1) payload bytes. A count the remaining bytes cannot hold
// is corruption, never an allocation of that size: it fails and
// returns 0.
func (d *Dec) Len(minSize int) int {
	var n uint64
	if p := d.take(4); p != nil {
		n = uint64(binary.LittleEndian.Uint32(p))
	}
	if n*uint64(minSize) > uint64(len(d.b)) {
		d.fail("count %d exceeds the %d remaining bytes", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *Dec) Str() string { return string(d.Bytes()) }

// Bytes returns a length-prefixed blob. It aliases the payload: copy it
// if it must outlive the frame.
func (d *Dec) Bytes() []byte { return d.take(uint64(d.Len(1))) }

// Done returns the first decode error, or an error when bytes remain
// past the end of the layout.
func (d *Dec) Done() error {
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.err
}
