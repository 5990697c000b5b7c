package repl

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"testing"
	"time"
)

func pipeConns(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	t.Cleanup(func() { _ = ca.Close(); _ = cb.Close() })
	return ca, cb
}

func TestFrameRoundTrip(t *testing.T) {
	ca, cb := pipeConns(t)
	done := make(chan error, 1)
	go func() {
		if err := ca.WriteMsg(MsgCommit, []byte("payload-1")); err != nil {
			done <- err
			return
		}
		if err := ca.WriteMsg(MsgLoad, nil); err != nil {
			done <- err
			return
		}
		if err := ca.WriteMessage(MsgHeartbeat, Heartbeat{Watermark: 42}); err != nil {
			done <- err
			return
		}
		done <- ca.Flush()
	}()
	typ, payload, err := cb.ReadMsg()
	if err != nil || typ != MsgCommit || string(payload) != "payload-1" {
		t.Fatalf("frame 1: type=%d payload=%q err=%v", typ, payload, err)
	}
	typ, payload, err = cb.ReadMsg()
	if err != nil || typ != MsgLoad || len(payload) != 0 {
		t.Fatalf("frame 2: type=%d payload=%q err=%v", typ, payload, err)
	}
	typ, payload, err = cb.ReadMsg()
	if err != nil || typ != MsgHeartbeat {
		t.Fatalf("frame 3: type=%d err=%v", typ, err)
	}
	var hb Heartbeat
	if err := hb.Decode(payload); err != nil || hb.Watermark != 42 {
		t.Fatalf("heartbeat decode: %+v err=%v", hb, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
}

func TestFrameChecksumRejected(t *testing.T) {
	a, b := net.Pipe()
	cb := NewConn(b)
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	go func() {
		// Hand-build a frame whose CRC does not match its body.
		body := []byte{byte(MsgCommit), 'x', 'y'}
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(body)))
		binary.LittleEndian.PutUint32(hdr[4:], 0xdeadbeef)
		_, _ = a.Write(hdr[:])
		_, _ = a.Write(body)
	}()
	if _, _, err := cb.ReadMsg(); err == nil {
		t.Fatalf("corrupt frame accepted")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	ca, cb := pipeConns(t)
	go func() {
		_ = ca.SendMessage(MsgHello, Hello{Role: RoleReplica, Namespace: "tenant-a", AfterTS: 7})
	}()
	typ, payload, err := cb.ReadMsg()
	if err != nil || typ != MsgHello {
		t.Fatalf("type=%d err=%v", typ, err)
	}
	var h Hello
	if payload[0] != ProtoVersion {
		t.Fatalf("hello version byte = %d, want %d", payload[0], ProtoVersion)
	}
	if err := h.Decode(payload); err != nil {
		t.Fatal(err)
	}
	if h.Role != RoleReplica || h.Namespace != "tenant-a" || h.AfterTS != 7 {
		t.Fatalf("hello: %+v", h)
	}
}

// collect drains everything currently buffered in the subscriber.
func collect(s *Subscriber) []Record {
	var out []Record
	for {
		select {
		case rec, ok := <-s.C:
			if !ok {
				return out
			}
			out = append(out, rec)
		default:
			return out
		}
	}
}

func TestPublisherHoldsUntilWatermark(t *testing.T) {
	p := NewPublisher(0)
	s := p.Attach(16)
	p.Stage(Record{TS: 5, Type: MsgCommit, Payload: []byte("c5")})
	p.Stage(Record{TS: 6, Type: MsgCommit, Payload: []byte("c6")})
	if got := collect(s); len(got) != 0 {
		t.Fatalf("records released before watermark: %d", len(got))
	}
	p.Advance(5)
	got := collect(s)
	if len(got) != 2 || got[0].TS != 5 || got[1].Type != MsgHeartbeat || got[1].TS != 5 {
		t.Fatalf("after advance(5): %+v", got)
	}
	p.Advance(6)
	got = collect(s)
	if len(got) != 2 || got[0].TS != 6 || got[1].Type != MsgHeartbeat || got[1].TS != 6 {
		t.Fatalf("after advance(6): %+v", got)
	}
	if p.Watermark() != 6 {
		t.Fatalf("watermark = %d", p.Watermark())
	}
}

func TestPublisherFIFOAcrossShards(t *testing.T) {
	// Shard A's batch [10..11] is staged (appended) before shard B's
	// [5..6]: release order must follow stage order once the watermark
	// covers both, and the heartbeat must come last.
	p := NewPublisher(0)
	s := p.Attach(16)
	p.Stage(Record{TS: 10, Type: MsgCommit})
	p.Stage(Record{TS: 11, Type: MsgCommit})
	p.Stage(Record{TS: 5, Type: MsgCommit})
	p.Stage(Record{TS: 6, Type: MsgCommit})
	p.Advance(9) // 5..9 completed, 10.. not yet: nothing releasable at the head
	for _, rec := range collect(s) {
		// No records may release, and any heartbeat must stay below the
		// held records' timestamps — announcing 5..9 before delivering
		// the stuck records 5 and 6 would violate the stream contract.
		if rec.Type != MsgHeartbeat || rec.TS >= 5 {
			t.Fatalf("released early: %+v", rec)
		}
	}
	p.Advance(11)
	got := collect(s)
	want := []uint64{10, 11, 5, 6}
	if len(got) != 5 {
		t.Fatalf("got %d records", len(got))
	}
	for i, ts := range want {
		if got[i].TS != ts || got[i].Type != MsgCommit {
			t.Fatalf("record %d: %+v, want TS %d", i, got[i], ts)
		}
	}
	if got[4].Type != MsgHeartbeat || got[4].TS != 11 {
		t.Fatalf("tail: %+v", got[4])
	}
}

func TestPublisherZeroTSPassThrough(t *testing.T) {
	p := NewPublisher(0)
	s := p.Attach(16)
	p.Stage(Record{TS: 3, Type: MsgCommit})
	// Schema staged behind a held commit must wait for it (FIFO), so a
	// truncate can never overtake the commits its timestamp covers.
	p.Stage(Record{TS: 0, Type: MsgSchema, Payload: []byte("ddl")})
	if got := collect(s); len(got) != 0 {
		t.Fatalf("schema overtook a held commit: %+v", got)
	}
	p.Advance(3)
	got := collect(s)
	if len(got) != 3 || got[0].TS != 3 || got[1].Type != MsgSchema || got[2].Type != MsgHeartbeat {
		t.Fatalf("release order: %+v", got)
	}
	// With an empty queue, timestamp-less records release immediately.
	p.Stage(Record{TS: 0, Type: MsgLoad})
	if got := collect(s); len(got) != 1 || got[0].Type != MsgLoad {
		t.Fatalf("load not passed through: %+v", got)
	}
}

func TestPublisherOverflowDisconnects(t *testing.T) {
	p := NewPublisher(0)
	s := p.Attach(2)
	for ts := uint64(1); ts <= 4; ts++ {
		p.Stage(Record{TS: ts, Type: MsgCommit})
		p.Advance(ts)
	}
	// Buffer of 2 cannot hold 4 records: the subscriber must be cut.
	var got []Record
	for rec := range s.C {
		got = append(got, rec)
	}
	if !s.Lost() {
		t.Fatalf("overflowed subscriber not marked lost")
	}
	if p.Subscribers() != 0 {
		t.Fatalf("lost subscriber still attached")
	}
	if p.Drops() != 1 {
		t.Fatalf("drops = %d", p.Drops())
	}
	if len(got) == 0 {
		t.Fatalf("no records delivered before disconnect")
	}
}

func TestPublisherResume(t *testing.T) {
	p := NewPublisher(0)
	for ts := uint64(1); ts <= 10; ts++ {
		p.Stage(Record{TS: ts, Type: MsgCommit})
		p.Advance(ts)
	}
	p.Stage(Record{TS: 0, Type: MsgSchema})
	s, ok := p.Resume(7, 64)
	if !ok {
		t.Fatalf("resume refused inside history window")
	}
	got := collect(s)
	// Suffix above 7 (8, 9, 10), the schema record, and the catch-up
	// heartbeat.
	var ts []uint64
	for _, r := range got {
		if r.Type == MsgCommit {
			ts = append(ts, r.TS)
		}
	}
	if len(ts) != 3 || ts[0] != 8 || ts[2] != 10 {
		t.Fatalf("resume suffix: %v", ts)
	}
	if got[len(got)-1].Type != MsgHeartbeat || got[len(got)-1].TS != 10 {
		t.Fatalf("resume tail: %+v", got[len(got)-1])
	}
	// Live records keep flowing after resume.
	p.Stage(Record{TS: 11, Type: MsgCommit})
	p.Advance(11)
	live := collect(s)
	if len(live) != 2 || live[0].TS != 11 {
		t.Fatalf("live after resume: %+v", live)
	}
}

func TestPublisherResumeRefusedPastHistory(t *testing.T) {
	p := NewPublisher(4)
	for ts := uint64(1); ts <= 10; ts++ {
		p.Stage(Record{TS: ts, Type: MsgCommit})
		p.Advance(ts)
	}
	// History holds only the newest 4 records (7..10); resuming from 3
	// would skip 4..6.
	if _, ok := p.Resume(3, 64); ok {
		t.Fatalf("resume allowed past evicted history")
	}
	if s, ok := p.Resume(6, 64); !ok {
		t.Fatalf("resume refused at history edge")
	} else {
		p.Detach(s)
	}
}

func TestPublisherResumeRefusedPastEvictedSchema(t *testing.T) {
	p := NewPublisher(4)
	// Commits 1..3 release (published watermark 3), then a schema
	// record: its eviction floor is 4 — only a replica whose applied
	// watermark moved past 3 provably received it (the heartbeat that
	// carried the higher watermark was enqueued after the release).
	for ts := uint64(1); ts <= 3; ts++ {
		p.Stage(Record{TS: ts, Type: MsgCommit})
		p.Advance(ts)
	}
	p.Stage(Record{TS: 0, Type: MsgSchema, Payload: []byte("create")})
	// Push the schema record out of the 4-slot history without evicting
	// any commit at or above TS 4, so the floor raise under test can
	// only come from the schema record itself.
	for ts := uint64(4); ts <= 7; ts++ {
		p.Stage(Record{TS: ts, Type: MsgCommit})
		p.Advance(ts)
	}
	// afterTS 3: the replica applied 1..3 but may have disconnected
	// before the schema record reached it, and the replayed suffix no
	// longer contains it — resuming would silently skip every commit
	// addressing the table it created.
	if _, ok := p.Resume(3, 64); ok {
		t.Fatalf("resume allowed across an evicted schema record")
	}
	if s, ok := p.Resume(4, 64); !ok {
		t.Fatalf("resume refused above the schema record's eviction floor")
	} else {
		p.Detach(s)
	}
}

func TestPublisherClose(t *testing.T) {
	p := NewPublisher(0)
	s := p.Attach(4)
	p.Close()
	if _, ok := <-s.C; ok {
		t.Fatalf("channel open after close")
	}
	if s.Lost() {
		t.Fatalf("shutdown mis-flagged as overflow loss")
	}
	late := p.Attach(4)
	if _, ok := <-late.C; ok {
		t.Fatalf("attach after close returned live channel")
	}
}

func TestWireErrAndSendErr(t *testing.T) {
	we := WireErr{Msg: "boom", Code: 3}
	if we.Error() != "boom" {
		t.Fatalf("WireErr.Error() = %q", we.Error())
	}
	ca, cb := pipeConns(t)
	if ca.RemoteAddr() == nil {
		t.Fatal("RemoteAddr = nil")
	}
	done := make(chan error, 1)
	go func() { done <- ca.Flush() }() // SendErr flushes; pipe needs a reader
	go ca.SendErr("sent over the wire")
	typ, payload, err := cb.ReadMsg()
	if err != nil || typ != MsgErr {
		t.Fatalf("ReadMsg = %d, %v", typ, err)
	}
	var got WireErr
	if err := got.Decode(payload); err != nil || got.Msg != "sent over the wire" {
		t.Fatalf("decoded %+v, %v", got, err)
	}
}

func TestPublisherFrameCount(t *testing.T) {
	p := NewPublisher(0)
	s := p.Attach(16)
	defer p.Detach(s)
	p.Stage(Record{TS: 1, Type: MsgCommit})
	p.Stage(Record{TS: 2, Type: MsgCommit})
	p.Advance(2)
	if got := p.Frames(); got != 2 {
		t.Fatalf("Frames() = %d, want 2", got)
	}
	if p.Drops() != 0 {
		t.Fatalf("Drops() = %d, want 0", p.Drops())
	}
}

// stageReleased stages rec and, for a commit, advances the watermark
// over it, so it releases into the history at once.
func stageReleased(p *Publisher, rec Record) {
	p.Stage(rec)
	if rec.TS > 0 {
		p.Advance(rec.TS)
	}
}

func TestPublisherRingResumeAfterWrap(t *testing.T) {
	const histCap, k = 8, 5
	p := NewPublisher(histCap)
	// 3×cap+k releases, a schema record among them, so the ring has
	// wrapped three times and its oldest entry sits mid-array.
	var all []Record
	var ts uint64
	for i := 0; i < 3*histCap+k; i++ {
		rec := Record{Type: MsgSchema, Payload: []byte{byte(i)}}
		if i != 3*histCap {
			ts++
			rec = Record{TS: ts, Type: MsgCommit, Payload: []byte{byte(i)}}
		}
		stageReleased(p, rec)
		all = append(all, rec)
	}
	retained := all[len(all)-histCap:]
	floor := all[len(all)-histCap-1].TS // newest evicted: a commit
	if _, ok := p.Resume(floor-1, 64); ok {
		t.Fatalf("resume allowed below the newest evicted commit %d", floor)
	}
	for after := floor; after <= ts; after++ {
		s, ok := p.Resume(after, 64)
		if !ok {
			t.Fatalf("resume(%d) refused inside the retained window", after)
		}
		var want []Record
		for _, rec := range retained {
			if rec.TS == 0 || rec.TS > after {
				want = append(want, rec)
			}
		}
		got := collect(s)
		p.Detach(s)
		if after < ts {
			// Catch-up heartbeat after the suffix.
			if last := got[len(got)-1]; last.Type != MsgHeartbeat || last.TS != ts {
				t.Fatalf("resume(%d) tail = %+v", after, last)
			}
			got = got[:len(got)-1]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("resume(%d) = %+v, want %+v", after, got, want)
		}
	}
}

func TestPublisherRingEvictedSchemaFloorAfterWrap(t *testing.T) {
	p := NewPublisher(4)
	// Wrap the ring twice and a half before the schema record lands.
	for ts := uint64(1); ts <= 10; ts++ {
		stageReleased(p, Record{TS: ts, Type: MsgCommit})
	}
	// Published watermark 10: the schema record's eviction floor is 11.
	stageReleased(p, Record{Type: MsgSchema, Payload: []byte("create")})
	for ts := uint64(11); ts <= 14; ts++ {
		stageReleased(p, Record{TS: ts, Type: MsgCommit})
	}
	// Evicted commits only raise the floor to 10; refusing 10 can only
	// come from the evicted schema record.
	if _, ok := p.Resume(10, 64); ok {
		t.Fatalf("resume allowed across an evicted schema record after wrap-around")
	}
	if s, ok := p.Resume(11, 64); !ok {
		t.Fatalf("resume refused at the schema record's eviction floor")
	} else {
		p.Detach(s)
	}
}

// BenchmarkPublisherStage releases one commit record per op with no
// subscriber attached, the serving primary's steady state. below-cap
// starts each history window empty; above-cap first fills the history
// past 4× its capacity, so every timed release evicts. The two should
// cost the same.
func BenchmarkPublisherStage(b *testing.B) {
	payload := make([]byte, 64)
	b.Run("below-cap", func(b *testing.B) {
		var p *Publisher
		for i := 0; i < b.N; i++ {
			if i%defaultHistCap == 0 {
				b.StopTimer()
				p = NewPublisher(0)
				b.StartTimer()
			}
			ts := uint64(i%defaultHistCap) + 1
			p.Stage(Record{TS: ts, Type: MsgCommit, Payload: payload})
			p.Advance(ts)
		}
	})
	b.Run("above-cap", func(b *testing.B) {
		p := NewPublisher(0)
		ts := uint64(0)
		for ; ts < 4*defaultHistCap; ts++ {
			stageReleased(p, Record{TS: ts + 1, Type: MsgCommit, Payload: payload})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ts++
			p.Stage(Record{TS: ts, Type: MsgCommit, Payload: payload})
			p.Advance(ts)
		}
	})
}

// TestReadBufferBound: a frame larger than maxKeptBuf is read into a
// one-off buffer, so the read buffer a Conn keeps stays bounded by
// maxKeptBuf however large a frame once was.
func TestReadBufferBound(t *testing.T) {
	ca, cb := pipeConns(t)
	big := make([]byte, 1<<20)
	big[len(big)-1] = 7
	go func() {
		_ = ca.WriteMsg(MsgCommit, big)
		for i := 0; i < 3; i++ {
			_ = ca.WriteMsg(MsgLoad, []byte("small"))
		}
		_ = ca.Flush()
	}()
	typ, payload, err := cb.ReadMsg()
	if err != nil || typ != MsgCommit || len(payload) != len(big) || payload[len(big)-1] != 7 {
		t.Fatalf("large frame: type=%d len=%d err=%v", typ, len(payload), err)
	}
	if c := cap(cb.rbuf); c > maxKeptBuf {
		t.Fatalf("kept read buffer %d bytes after a large frame, bound %d", c, maxKeptBuf)
	}
	for i := 0; i < 3; i++ {
		typ, payload, err := cb.ReadMsg()
		if err != nil || typ != MsgLoad || string(payload) != "small" {
			t.Fatalf("small frame %d: type=%d payload=%q err=%v", i, typ, payload, err)
		}
		if c := cap(cb.rbuf); c > maxKeptBuf {
			t.Fatalf("kept read buffer %d bytes, bound %d", c, maxKeptBuf)
		}
	}
}

// TestChunkStream: a ChunkWriter body arrives byte-identical through a
// ChunkReader, after the schema frames that precede it; the reader
// stops at the end frame, leaving the next frame for the live stream.
func TestChunkStream(t *testing.T) {
	ca, cb := pipeConns(t)
	body := make([]byte, 3*MaxChunk+123)
	for i := range body {
		body[i] = byte(i * 31)
	}
	go func() {
		_ = ca.WriteMsg(MsgSchema, []byte("s0"))
		w := NewChunkWriter(ca)
		for p := body; len(p) > 0; {
			k := min(len(p), 1000)
			if _, err := w.Write(p[:k]); err != nil {
				return
			}
			p = p[k:]
		}
		_ = w.Close()
		_ = ca.SendMessage(MsgHeartbeat, Heartbeat{Watermark: 9})
	}()
	var schema []string
	r := NewChunkReader(cb, time.Minute, func(p []byte) error {
		schema = append(schema, string(p))
		return nil
	})
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("body: %d of %d bytes, equal %v, err %v", len(got), len(body), bytes.Equal(got, body), err)
	}
	if !reflect.DeepEqual(schema, []string{"s0"}) {
		t.Fatalf("schema frames = %q", schema)
	}
	if typ, _, err := cb.ReadMsg(); err != nil || typ != MsgHeartbeat {
		t.Fatalf("frame after the body: type=%d err=%v", typ, err)
	}
}
