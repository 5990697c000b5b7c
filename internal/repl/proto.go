// Package repl is the replication and serving transport of AnKerDB: a
// minimal length-prefixed framed protocol over which a primary streams
// durable WAL record payloads (after a checkpoint bootstrap) to read
// replicas, and clients run remote sessions — and the publisher that
// feeds every replica stream in commit order.
//
// Wire format. Every message is one frame:
//
//	[len u32][crc32 u32][type u8][payload]
//
// len counts the body (type byte + payload), crc32 (IEEE) covers the
// body, both little-endian — the same torn-tail-tolerant framing the
// WAL segments use, so a half-written frame is detected, never
// misparsed. Payload encoding depends on the type: replication record
// types (MsgCommit, MsgLoad, MsgSchema) carry WAL record payloads
// verbatim (internal/wal encoding — the replica replays exactly the
// bytes the primary made durable), MsgCheckpoint frames carry
// consecutive chunks of one checkpoint body (internal/wal encoding — a
// bootstrap is a checkpoint streamed over the connection), and every
// control message (hello, heartbeat, session requests, ...) is one
// fixed little-endian field layout written by Enc and read by Dec:
// integers are u8/u64, strings and blobs a u32 length then the bytes,
// slices a u32 count then the elements. The layouts are:
//
//	Hello      [version u8][role str][namespace str][afterTS u64]
//	Welcome    [snapshot u8][ts u64]
//	Heartbeat  [watermark u64]
//	Ack        [appliedTS u64]
//	WireErr    [code u8][msg str]
//
// The request/response layouts belong to the root package. Hello's
// first byte is ProtoVersion; a server answers a hello of any other
// version with MsgErr and closes, so mismatched peers fail at the
// handshake instead of misparsing each other's frames. A decoder
// rejects truncated input, trailing bytes and any count its remaining
// bytes cannot hold.
//
// The package deliberately knows nothing about the engine: it moves
// frames and orders records. The root package owns applying them.
package repl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"
)

// MsgType tags a frame's body.
type MsgType uint8

// Frame types.
const (
	// MsgHello opens a connection: Hello, sent by the client
	// (session or replica) as its first frame.
	MsgHello MsgType = 1
	// MsgWelcome accepts a hello: Welcome, the server's first frame.
	MsgWelcome MsgType = 2
	// MsgSchema carries one schema-log record payload (table creation,
	// index DDL or table DDL) in WAL encoding.
	MsgSchema MsgType = 3
	// MsgCheckpoint carries the next chunk (at most MaxChunk bytes) of
	// a bootstrap's checkpoint body; an empty chunk ends the body. (Types
	// 5 and 6 belonged to the protocol-1 snapshot frames and are unused.)
	MsgCheckpoint MsgType = 4
	// MsgCommit carries one commit record payload in WAL encoding.
	MsgCommit MsgType = 7
	// MsgLoad carries one bulk-load chunk record payload in WAL encoding.
	MsgLoad MsgType = 8
	// MsgHeartbeat carries the primary's completion watermark:
	// Heartbeat. The stream is ordered so that every record with a
	// commit timestamp at or below the watermark precedes the heartbeat
	// — a replica that applied everything before it may publish the
	// watermark to its readers.
	MsgHeartbeat MsgType = 9
	// MsgAck reports a replica's applied watermark upstream: Ack.
	MsgAck MsgType = 10
	// MsgRequest/MsgResponse carry one session operation and its result
	// (layouts owned by the root package).
	MsgRequest  MsgType = 11
	MsgResponse MsgType = 12
	// MsgErr carries a fatal connection error: WireErr, after which
	// the sender closes.
	MsgErr MsgType = 13
)

// ProtoVersion is the wire protocol version, the first byte of every
// Hello. Bump it whenever a frame layout changes.
const ProtoVersion uint8 = 2

// Message is a control or session message with a fixed binary layout:
// AppendTo appends its encoding to dst.
type Message interface {
	AppendTo(dst []byte) []byte
}

// Hello opens a connection.
type Hello struct {
	Role      string // RoleSession or RoleReplica
	Namespace string // tenant the connection addresses
	AfterTS   uint64 // replica resume point: newest applied commit TS (0 = fresh)
}

// Connection roles.
const (
	RoleSession = "session"
	RoleReplica = "replica"
)

// AppendTo encodes h, stamped with ProtoVersion.
func (h Hello) AppendTo(dst []byte) []byte {
	e := Enc{B: dst}
	e.U8(ProtoVersion)
	e.Str(h.Role)
	e.Str(h.Namespace)
	e.U64(h.AfterTS)
	return e.B
}

// Decode parses a Hello, refusing any protocol version but ours.
func (h *Hello) Decode(p []byte) error {
	d := NewDec(p)
	if v := d.U8(); v != ProtoVersion {
		return fmt.Errorf("repl: protocol version %d, want %d", v, ProtoVersion)
	}
	*h = Hello{Role: d.Str(), Namespace: d.Str(), AfterTS: d.U64()}
	return d.Done()
}

// Welcome accepts a Hello.
type Welcome struct {
	// Snapshot reports whether a bootstrap (schema frames, then a
	// checkpoint in MsgCheckpoint chunks) precedes the live stream.
	// False when the primary can resume the replica from its retained
	// record history.
	Snapshot bool
	// TS is the primary's completion watermark at accept time.
	TS uint64
}

func (w Welcome) AppendTo(dst []byte) []byte {
	e := Enc{B: dst}
	e.Bool(w.Snapshot)
	e.U64(w.TS)
	return e.B
}

func (w *Welcome) Decode(p []byte) error {
	d := NewDec(p)
	*w = Welcome{Snapshot: d.Bool(), TS: d.U64()}
	return d.Done()
}

// Heartbeat publishes the primary's completion watermark.
type Heartbeat struct {
	Watermark uint64
}

func (h Heartbeat) AppendTo(dst []byte) []byte { return appendU64(dst, h.Watermark) }
func (h *Heartbeat) Decode(p []byte) error     { return decodeU64(p, &h.Watermark) }

// Ack reports the replica's applied watermark.
type Ack struct {
	AppliedTS uint64
}

func (a Ack) AppendTo(dst []byte) []byte { return appendU64(dst, a.AppliedTS) }
func (a *Ack) Decode(p []byte) error     { return decodeU64(p, &a.AppliedTS) }

// appendU64/decodeU64 are the layout of the single-watermark messages.
func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

func decodeU64(p []byte, v *uint64) error {
	d := NewDec(p)
	*v = d.U64()
	return d.Done()
}

// WireErr is a fatal error shipped before close. Code optionally names
// a well-known engine sentinel (table owned by the root package, 0 =
// none) so remote clients can rebuild errors.Is-able errors.
type WireErr struct {
	Msg  string
	Code uint8
}

func (e WireErr) Error() string { return e.Msg }

func (e WireErr) AppendTo(dst []byte) []byte {
	enc := Enc{B: dst}
	enc.U8(e.Code)
	enc.Str(e.Msg)
	return enc.B
}

func (e *WireErr) Decode(p []byte) error {
	d := NewDec(p)
	*e = WireErr{Code: d.U8(), Msg: d.Str()}
	return d.Done()
}

// maxFrameLen bounds a frame body; larger lengths mark a corrupt or
// hostile stream (matches the WAL's frame bound).
const maxFrameLen = 1 << 30

// maxKeptBuf bounds the encode and read buffers a Conn keeps between
// frames, so one large frame (a Scan response) does not pin its size
// for the connection's lifetime.
const maxKeptBuf = 1 << 16

// MaxChunk bounds the checkpoint bytes one MsgCheckpoint frame
// carries: the frame body (type byte + chunk) fits the read buffer a
// Conn keeps, so a bootstrap of any size streams through O(chunk)
// memory on both ends.
const MaxChunk = maxKeptBuf - 1

// Conn frames messages over a byte stream. Writes are buffered —
// callers batch records and Flush at stream quiescence points; the
// read side never needs flushing. A Conn serialises writers and
// readers independently, so one sender goroutine and one receiver
// goroutine can share it without locks of their own. Both sides reuse
// their header and message buffers, so steady-state framing does not
// allocate.
type Conn struct {
	c net.Conn

	rmu  sync.Mutex
	br   *bufio.Reader
	rhdr [8]byte
	rbuf []byte

	wmu  sync.Mutex
	bw   *bufio.Writer
	whdr [9]byte
	wbuf []byte // Message encode buffer
}

// NewConn wraps c for framed messaging.
func NewConn(c net.Conn) *Conn {
	return &Conn{
		c:  c,
		br: bufio.NewReaderSize(c, 1<<16),
		bw: bufio.NewWriterSize(c, 1<<16),
	}
}

// Close closes the underlying connection (buffered writes are not
// flushed — call Flush first for a graceful close).
func (c *Conn) Close() error { return c.c.Close() }

// SetDeadline bounds every pending and future read/write; the zero
// time clears it. Callers use it to bound a bounded exchange (a
// handshake, a bootstrap frame) so a stalled peer produces an error
// instead of a hang.
func (c *Conn) SetDeadline(t time.Time) error { return c.c.SetDeadline(t) }

// SetReadDeadline bounds every pending and future read; the zero time
// clears it.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.c.SetReadDeadline(t) }

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }

// WriteMsg appends one frame carrying payload to the write buffer.
func (c *Conn) WriteMsg(t MsgType, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeMsgLocked(t, payload)
}

func (c *Conn) writeMsgLocked(t MsgType, payload []byte) error {
	if len(payload)+1 > maxFrameLen {
		return fmt.Errorf("repl: frame body %d bytes exceeds limit", len(payload)+1)
	}
	hdr := c.whdr[:]
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)+1))
	hdr[8] = byte(t)
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[8:9]), crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(hdr[4:], crc)
	if _, err := c.bw.Write(hdr); err != nil {
		return err
	}
	_, err := c.bw.Write(payload)
	return err
}

// WriteMessage encodes m into the connection's reused encode buffer
// and appends it as one frame (no flush).
func (c *Conn) WriteMessage(t MsgType, m Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeMessageLocked(t, m)
}

func (c *Conn) writeMessageLocked(t MsgType, m Message) error {
	c.wbuf = m.AppendTo(c.wbuf[:0])
	err := c.writeMsgLocked(t, c.wbuf)
	if cap(c.wbuf) > maxKeptBuf {
		c.wbuf = nil
	}
	return err
}

// SendMessage writes m as one frame and flushes — the request/response
// pattern.
func (c *Conn) SendMessage(t MsgType, m Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.writeMessageLocked(t, m); err != nil {
		return err
	}
	return c.bw.Flush()
}

// Flush pushes buffered frames to the wire.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.bw.Flush()
}

// ReadMsg reads the next frame. The returned payload is only valid
// until the next ReadMsg call. Only frames up to maxKeptBuf reuse the
// connection's read buffer; a larger one gets its own. A bad length or
// checksum returns an error — the stream cannot be trusted past it.
func (c *Conn) ReadMsg() (MsgType, []byte, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	hdr := c.rhdr[:]
	if _, err := io.ReadFull(c.br, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if n == 0 || n > maxFrameLen {
		return 0, nil, fmt.Errorf("repl: frame body length %d out of range", n)
	}
	var body []byte
	if n > maxKeptBuf {
		body = make([]byte, n) // one-off: not kept past this frame
	} else {
		if int(n) > cap(c.rbuf) {
			c.rbuf = make([]byte, n)
		}
		body = c.rbuf[:n]
	}
	if _, err := io.ReadFull(c.br, body); err != nil {
		return 0, nil, err
	}
	if crc32.ChecksumIEEE(body) != crc {
		return 0, nil, fmt.Errorf("repl: frame checksum mismatch")
	}
	return MsgType(body[0]), body[1:], nil
}

// SendErr ships a WireErr frame (best-effort) so the peer sees why the
// connection is about to close.
func (c *Conn) SendErr(msg string) {
	_ = c.SendMessage(MsgErr, WireErr{Msg: msg})
}

// ChunkWriter is the sending end of a bootstrap's checkpoint body: an
// io.Writer that ships its bytes as MsgCheckpoint frames of at most
// MaxChunk bytes. Close sends the rest and the empty end-of-body frame,
// then flushes.
type ChunkWriter struct {
	c   *Conn
	buf []byte
}

// NewChunkWriter returns a ChunkWriter framing onto c.
func NewChunkWriter(c *Conn) *ChunkWriter {
	return &ChunkWriter{c: c, buf: make([]byte, 0, MaxChunk)}
}

// Write implements io.Writer.
func (w *ChunkWriter) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		k := copy(w.buf[len(w.buf):MaxChunk], p)
		w.buf, p = w.buf[:len(w.buf)+k], p[k:]
		if len(w.buf) == MaxChunk {
			if err := w.c.WriteMsg(MsgCheckpoint, w.buf); err != nil {
				return 0, err
			}
			w.buf = w.buf[:0]
		}
	}
	return n, nil
}

// Close ends the body: the buffered rest, the empty end frame, flush.
func (w *ChunkWriter) Close() error {
	if len(w.buf) > 0 {
		if err := w.c.WriteMsg(MsgCheckpoint, w.buf); err != nil {
			return err
		}
	}
	if err := w.c.WriteMsg(MsgCheckpoint, nil); err != nil {
		return err
	}
	return w.c.Flush()
}

// ChunkReader is the receiving end of a bootstrap: an io.Reader over
// consecutive MsgCheckpoint frames that reports io.EOF at the empty end
// frame, so the checkpoint decoder's end-of-input check sees exactly
// one body. MsgSchema frames ahead of the first chunk (the schema log a
// bootstrap ships first) go to schema. Every frame read is deadlined
// by timeout, so a peer that stalls mid-bootstrap fails the read
// instead of hanging it; a MsgErr frame becomes the error, and any
// other frame type is a protocol violation.
type ChunkReader struct {
	c       *Conn
	timeout time.Duration
	schema  func(payload []byte) error
	chunk   []byte // unread rest of the current frame (aliases c's read buffer)
	started bool
	done    bool
}

// NewChunkReader returns a ChunkReader reading from c.
func NewChunkReader(c *Conn, timeout time.Duration, schema func(payload []byte) error) *ChunkReader {
	return &ChunkReader{c: c, timeout: timeout, schema: schema}
}

// Read implements io.Reader.
func (r *ChunkReader) Read(p []byte) (int, error) {
	for len(r.chunk) == 0 {
		if r.done {
			return 0, io.EOF
		}
		_ = r.c.SetReadDeadline(time.Now().Add(r.timeout))
		typ, payload, err := r.c.ReadMsg()
		if err != nil {
			return 0, err
		}
		switch {
		case typ == MsgCheckpoint:
			r.chunk, r.started, r.done = payload, true, len(payload) == 0
		case typ == MsgSchema && !r.started:
			if err := r.schema(payload); err != nil {
				return 0, err
			}
		case typ == MsgErr:
			var we WireErr
			_ = we.Decode(payload)
			return 0, fmt.Errorf("repl: peer aborted bootstrap: %s", we.Msg)
		default:
			return 0, fmt.Errorf("repl: unexpected frame type %d during bootstrap", typ)
		}
	}
	n := copy(p, r.chunk)
	r.chunk = r.chunk[n:]
	return n, nil
}
