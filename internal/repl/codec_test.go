package repl

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// decodable is the decode half of every control message.
type decodable interface {
	Decode(p []byte) error
}

func TestControlMessagesRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		in  Message
		out decodable
	}{
		{Hello{Role: RoleReplica, Namespace: "tenant-a", AfterTS: 1 << 40}, &Hello{}},
		{Hello{Role: RoleSession}, &Hello{}},
		{Welcome{Snapshot: true, TS: 99}, &Welcome{}},
		{Welcome{}, &Welcome{}},
		{Heartbeat{Watermark: ^uint64(0)}, &Heartbeat{}},
		{Ack{AppliedTS: 7}, &Ack{}},
		{WireErr{Msg: "boom: ü", Code: 13}, &WireErr{}},
	} {
		p := tc.in.AppendTo(nil)
		if err := tc.out.Decode(p); err != nil {
			t.Fatalf("%T: decode: %v", tc.in, err)
		}
		if got := reflect.ValueOf(tc.out).Elem().Interface(); !reflect.DeepEqual(got, tc.in) {
			t.Fatalf("%T: round trip = %+v, want %+v", tc.in, got, tc.in)
		}
		// Every strict prefix is truncated input, and a trailing byte is
		// not part of the layout: both must fail.
		for n := 0; n < len(p); n++ {
			if err := tc.out.Decode(p[:n]); err == nil {
				t.Fatalf("%T: %d-byte prefix of %d decoded", tc.in, n, len(p))
			}
		}
		if err := tc.out.Decode(append(p, 0)); err == nil {
			t.Fatalf("%T: trailing byte accepted", tc.in)
		}
	}
}

// TestDecodeRejectsOversizedCount: a length prefix larger than the
// remaining frame fails the decode instead of sizing an allocation.
func TestDecodeRejectsOversizedCount(t *testing.T) {
	p := []byte{0}
	p = binary.LittleEndian.AppendUint32(p, 1<<31)
	p = append(p, "short"...)
	var we WireErr
	if err := we.Decode(p); err == nil {
		t.Fatalf("oversized string length accepted: %+v", we)
	}
	d := NewDec(binary.LittleEndian.AppendUint32(nil, 3))
	if n := d.Len(1); n != 0 || d.Done() == nil {
		t.Fatalf("count 3 over 0 bytes: n=%d err=%v", n, d.Done())
	}
	d = NewDec(append(binary.LittleEndian.AppendUint32(nil, 2), make([]byte, 15)...))
	if n := d.Len(8); n != 0 || d.Done() == nil {
		t.Fatalf("2 × 8-byte elements over 15 bytes: n=%d err=%v", n, d.Done())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_ = we.Decode(p)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<16 {
		t.Fatalf("rejected decode allocated %d bytes", n)
	}
}

// fuzzDecode checks that decode never panics on arbitrary bytes, and
// that whatever it accepts re-encodes to the same bytes.
func fuzzDecode[T any, P interface {
	*T
	decodable
	Message
}](f *testing.F, seeds ...T) {
	for _, s := range seeds {
		f.Add(P(&s).AppendTo(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, p []byte) {
		var v T
		if P(&v).Decode(p) != nil {
			return
		}
		if again := P(&v).AppendTo(nil); !bytes.Equal(again, p) {
			t.Fatalf("accepted %x but re-encodes as %x", p, again)
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	fuzzDecode(f, Hello{Role: RoleReplica, Namespace: "ns", AfterTS: 5})
}

func FuzzDecodeWelcome(f *testing.F) { fuzzDecode(f, Welcome{Snapshot: true, TS: 9}) }

func FuzzDecodeHeartbeat(f *testing.F) { fuzzDecode(f, Heartbeat{Watermark: 8}) }

func FuzzDecodeAck(f *testing.F) { fuzzDecode(f, Ack{AppliedTS: 8}) }

func FuzzDecodeWireErr(f *testing.F) { fuzzDecode(f, WireErr{Msg: "x", Code: 2}) }
