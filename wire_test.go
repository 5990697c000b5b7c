package ankerdb

import (
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"

	"ankerdb/internal/repl"
)

// raceEnabled reports a -race build (set by race_test.go), under which
// allocation counts are inflated by the detector.
var raceEnabled bool

func roundTripReq(t *testing.T, in wireReq) wireReq {
	t.Helper()
	var out wireReq
	if err := out.Decode(in.AppendTo(nil)); err != nil {
		t.Fatalf("decode %+v: %v", in, err)
	}
	return out
}

func roundTripResp(t *testing.T, in wireResp) wireResp {
	t.Helper()
	var out wireResp
	if err := out.Decode(in.AppendTo(nil)); err != nil {
		t.Fatalf("decode %+v: %v", in, err)
	}
	return out
}

// TestWireCodecRoundTrip: every session op's request, every sentinel
// code's response and a populated Stats survive encode+decode exactly.
func TestWireCodecRoundTrip(t *testing.T) {
	reqs := []wireReq{
		{Op: opBegin, Class: OLAP},
		{Op: opCommit, Txn: 7},
		{Op: opAbort, Txn: 7},
		{Op: opGet, Txn: 1, Tab: "kv", Col: "v", Row: 42},
		{Op: opGetString, Txn: 1, Tab: "kv", Col: "s", Row: 1 << 40},
		{Op: opScan, Txn: 1, Tab: "kv", Col: "v"},
		{Op: opLookup, Txn: 1, Tab: "kv", Col: "v", Val: -9},
		{Op: opFilter, Txn: 1, Tab: "kv", Col: "v", Lo: -1 << 63, Hi: 1<<63 - 1},
		{Op: opAggregate, Txn: 1, Tab: "kv", Col: "v", Agg: Max},
		{Op: opSet, Txn: 2, Tab: "kv", Col: "v", Row: 3, Val: 99},
		{Op: opSetString, Txn: 2, Tab: "kv", Col: "s", Row: 3, Str: "héllo"},
		{Op: opInsert, Txn: 2, Tab: "kv",
			Names: []string{"v", "s", "w"},
			Vals:  []int64{5, 0, -6},
			Strs:  []string{"", "str", ""},
			IsStr: []bool{false, true, false}},
		{Op: opDelete, Txn: 2, Tab: "kv", Row: 8},
		{Op: opStats},
	}
	seen := map[uint8]bool{}
	for _, in := range reqs {
		seen[in.Op] = true
		if out := roundTripReq(t, in); !reflect.DeepEqual(out, in) {
			t.Fatalf("request round trip = %+v, want %+v", out, in)
		}
	}
	for op := opBegin; op <= opStats; op++ {
		if !seen[op] {
			t.Fatalf("session op %d has no round-trip case", op)
		}
	}

	for _, in := range []wireResp{
		{Txn: 3, TS: 1 << 50},
		{Val: -12, Str: "s", Row: 77},
		{Rows: []int{0, 5, 1 << 33}},
		{Vals: []int64{-1, 0, 1}},
	} {
		if out := roundTripResp(t, in); !reflect.DeepEqual(out, in) {
			t.Fatalf("response round trip = %+v, want %+v", out, in)
		}
	}
	for code := 1; code < len(wireSentinels); code++ {
		sentinel := wireSentinels[code]
		in := wireResp{Err: errToWire(sentinel), Msg: "wrapped: " + sentinel.Error()}
		if int(in.Err) != code {
			t.Fatalf("errToWire(%v) = %d, want %d", sentinel, in.Err, code)
		}
		out := roundTripResp(t, in)
		if err := wireToErr(out.Err, out.Msg); !errors.Is(err, sentinel) || err.Error() != in.Msg {
			t.Fatalf("code %d decoded to %v, want errors.Is %v", code, err, sentinel)
		}
	}

	p := openPrimary(t, WithInitialSchema(NewSchema("kv").Int64("v").Build(), 8))
	commitWrite(t, p, "kv", "v", 0, 1)
	if _, err := p.Query("kv").Aggregate(CountRows()).Run(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.CommitValidateHist.Count == 0 || st.QueryExecHist.Count == 0 {
		t.Fatalf("stats fixture has empty histograms: %+v", st)
	}
	if out := roundTripResp(t, wireResp{Stats: &st}); out.Stats == nil || !reflect.DeepEqual(*out.Stats, st) {
		t.Fatalf("stats round trip lost fields:\n got %+v\nwant %+v", out.Stats, st)
	}
}

// TestWireDecodeRejectsOversizedCount: a count prefix larger than the
// remaining frame is an error, never a make of that size.
func TestWireDecodeRejectsOversizedCount(t *testing.T) {
	p := (&wireResp{}).AppendTo(nil)
	// The rows count sits 12 bytes before the end (rows u32, vals u32,
	// stats u32).
	binary.LittleEndian.PutUint32(p[len(p)-12:], 1<<30)
	var resp wireResp
	if err := resp.Decode(p); err == nil {
		t.Fatalf("oversized rows count accepted: %d rows", len(resp.Rows))
	}
	q := (&wireReq{Op: opInsert}).AppendTo(nil)
	binary.LittleEndian.PutUint32(q[len(q)-4:], 1<<31)
	var req wireReq
	if err := req.Decode(q); err == nil {
		t.Fatalf("oversized insert count accepted: %d names", len(req.Names))
	}
}

func FuzzDecodeWireReq(f *testing.F) {
	f.Add((&wireReq{Op: opGet, Tab: "kv", Col: "v", Row: 3}).AppendTo(nil))
	f.Add((&wireReq{Op: opInsert, Tab: "kv", Names: []string{"a", "b"}, Vals: []int64{1, 0},
		Strs: []string{"", "x"}, IsStr: []bool{false, true}}).AppendTo(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		var req wireReq
		if req.Decode(p) != nil {
			return
		}
		if len(req.Names) != len(req.IsStr) || len(req.Names) != len(req.Vals) || len(req.Names) != len(req.Strs) {
			t.Fatalf("insert slices misaligned: %+v", req)
		}
		if again := roundTripReq(t, req); !reflect.DeepEqual(again, req) {
			t.Fatalf("re-encode changed %+v to %+v", req, again)
		}
	})
}

func FuzzDecodeWireResp(f *testing.F) {
	f.Add((&wireResp{Err: 5, Msg: "no such table"}).AppendTo(nil))
	f.Add((&wireResp{Rows: []int{1, 2}, Vals: []int64{3}}).AppendTo(nil))
	f.Add((&wireResp{Stats: &Stats{Strategy: "vmsnap", Commits: 4}}).AppendTo(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		var resp wireResp
		if resp.Decode(p) != nil {
			return
		}
		if again := roundTripResp(t, resp); !reflect.DeepEqual(again, resp) {
			t.Fatalf("re-encode changed %+v to %+v", resp, again)
		}
	})
}

// TestHelloVersionMismatch: a hello stamped with another protocol
// version is refused with MsgErr at the handshake.
func TestHelloVersionMismatch(t *testing.T) {
	p := openPrimary(t)
	nc, err := net.Dial("tcp", p.ServeAddr())
	if err != nil {
		t.Fatal(err)
	}
	c := repl.NewConn(nc)
	defer c.Close()
	hello := repl.Hello{Role: repl.RoleSession}.AppendTo(nil)
	hello[0] = repl.ProtoVersion + 1
	if err := c.WriteMsg(repl.MsgHello, hello); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := c.ReadMsg()
	if err != nil || typ != repl.MsgErr {
		t.Fatalf("reply to foreign-version hello: type %d, err %v", typ, err)
	}
	var we repl.WireErr
	if err := we.Decode(payload); err != nil || !strings.Contains(we.Msg, "version") {
		t.Fatalf("refusal = %+v, %v", we, err)
	}
}

// TestRemoteSessionAllocs gates the allocations of a remote round trip
// over loopback, client and server together: a Get and a
// Begin+Get+Set+Commit transaction.
func TestRemoteSessionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	p := openPrimary(t, WithInitialSchema(NewSchema("kv").Int64("v").Build(), 64))
	sess, err := Dial(p.ServeAddr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	rd, err := sess.BeginTxn(OLAP)
	if err != nil {
		t.Fatal(err)
	}
	get := testing.AllocsPerRun(200, func() {
		if _, err := rd.Get("kv", "v", 1); err != nil {
			t.Fatal(err)
		}
	})
	if err := rd.Abort(); err != nil {
		t.Fatal(err)
	}

	v := int64(0)
	txn := testing.AllocsPerRun(200, func() {
		tx, err := sess.BeginTxn(OLTP)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Get("kv", "v", 2); err != nil {
			t.Fatal(err)
		}
		v++
		if err := tx.Set("kv", "v", 2, v); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("remote Get: %.0f allocs; remote Begin+Get+Set+Commit: %.0f allocs", get, txn)
	if get > 16 {
		t.Errorf("remote Get = %.0f allocs, want <= 16", get)
	}
	if txn > 100 {
		t.Errorf("remote Begin+Get+Set+Commit = %.0f allocs, want <= 100", txn)
	}
}
