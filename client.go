package ankerdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ankerdb/internal/repl"
)

// Remote session wire schema: one request struct and one response
// struct cover every SessionTxn operation, single in-flight per
// connection (the engine's session operations are synchronous anyway).
// Each is one fixed little-endian layout (repl.Enc/repl.Dec, see
// AppendTo below) encoded into the connection's reused buffer, so a
// round trip allocates only what the operation returns. Engine
// sentinel errors cross the wire as codes from wireSentinels, so
// errors.Is works identically against a remote session.

// Session op codes.
const (
	opBegin uint8 = iota + 1
	opCommit
	opAbort
	opGet
	opGetString
	opScan
	opLookup
	opFilter
	opAggregate
	opSet
	opSetString
	opInsert
	opDelete
	opStats
)

// wireReq is one session request frame (payload of MsgRequest).
type wireReq struct {
	Op    uint8
	Txn   uint64 // server-issued transaction handle (0 for Begin/Stats)
	Class TxnClass
	Tab   string
	Col   string
	Row   int
	Val   int64
	Str   string
	Lo    int64
	Hi    int64
	Agg   Agg
	// Insert's value map, flattened into parallel slices.
	Names []string
	Vals  []int64
	Strs  []string
	IsStr []bool
}

// wireResp is one session response frame (payload of MsgResponse).
type wireResp struct {
	Err   uint8  // wireSentinels index; 0 = success
	Msg   string // full error text when Err != 0
	Txn   uint64 // Begin: transaction handle
	TS    uint64 // Begin: snapshot timestamp
	Val   int64
	Str   string
	Row   int
	Rows  []int
	Vals  []int64
	Stats *Stats
}

// AppendTo encodes the request:
//
//	[op u8][txn u64][class u8][tab str][col str][row i64][val i64]
//	[str str][lo i64][hi i64][agg u8]
//	[n u32] n × ([name str][isStr u8][str str | val i64])
func (r *wireReq) AppendTo(dst []byte) []byte {
	e := repl.Enc{B: dst}
	e.U8(r.Op)
	e.U64(r.Txn)
	e.U8(uint8(r.Class))
	e.Str(r.Tab)
	e.Str(r.Col)
	e.I64(int64(r.Row))
	e.I64(r.Val)
	e.Str(r.Str)
	e.I64(r.Lo)
	e.I64(r.Hi)
	e.U8(uint8(r.Agg))
	e.Len(len(r.Names))
	for i, name := range r.Names {
		e.Str(name)
		e.Bool(r.IsStr[i])
		if r.IsStr[i] {
			e.Str(r.Strs[i])
		} else {
			e.I64(r.Vals[i])
		}
	}
	return e.B
}

// Decode parses a request, keeping Insert's parallel slices aligned.
func (r *wireReq) Decode(p []byte) error {
	d := repl.NewDec(p)
	*r = wireReq{
		Op:    d.U8(),
		Txn:   d.U64(),
		Class: TxnClass(d.U8()),
		Tab:   d.Str(),
		Col:   d.Str(),
		Row:   int(d.I64()),
		Val:   d.I64(),
		Str:   d.Str(),
		Lo:    d.I64(),
		Hi:    d.I64(),
		Agg:   Agg(d.U8()),
	}
	// An insert column takes at least a name length and a flag.
	for n := d.Len(5); n > 0; n-- {
		name, isStr := d.Str(), d.Bool()
		var str string
		var val int64
		if isStr {
			str = d.Str()
		} else {
			val = d.I64()
		}
		r.Names, r.IsStr = append(r.Names, name), append(r.IsStr, isStr)
		r.Strs, r.Vals = append(r.Strs, str), append(r.Vals, val)
	}
	return d.Done()
}

// AppendTo encodes the response:
//
//	[err u8][msg str][txn u64][ts u64][val i64][str str][row i64]
//	[n u32] n × row i64   [m u32] m × val i64   [stats str]
//
// Stats (opStats only, an admin op on no hot path) travels as a JSON
// blob, empty when absent.
func (r *wireResp) AppendTo(dst []byte) []byte {
	e := repl.Enc{B: dst}
	e.U8(r.Err)
	e.Str(r.Msg)
	e.U64(r.Txn)
	e.U64(r.TS)
	e.I64(r.Val)
	e.Str(r.Str)
	e.I64(int64(r.Row))
	e.Len(len(r.Rows))
	for _, row := range r.Rows {
		e.I64(int64(row))
	}
	e.Len(len(r.Vals))
	for _, v := range r.Vals {
		e.I64(v)
	}
	var stats []byte
	if r.Stats != nil {
		// Stats holds only numbers, strings and bools: Marshal cannot
		// fail on it.
		stats, _ = json.Marshal(r.Stats)
	}
	e.Bytes(stats)
	return e.B
}

// Decode parses a response.
func (r *wireResp) Decode(p []byte) error {
	d := repl.NewDec(p)
	*r = wireResp{
		Err: d.U8(),
		Msg: d.Str(),
		Txn: d.U64(),
		TS:  d.U64(),
		Val: d.I64(),
		Str: d.Str(),
		Row: int(d.I64()),
	}
	if n := d.Len(8); n > 0 {
		r.Rows = make([]int, n)
		for i := range r.Rows {
			r.Rows[i] = int(d.I64())
		}
	}
	if n := d.Len(8); n > 0 {
		r.Vals = make([]int64, n)
		for i := range r.Vals {
			r.Vals[i] = d.I64()
		}
	}
	if stats := d.Bytes(); len(stats) > 0 {
		r.Stats = new(Stats)
		if err := json.Unmarshal(stats, r.Stats); err != nil {
			return fmt.Errorf("ankerdb: bad stats in response: %w", err)
		}
	}
	return d.Done()
}

// wireSentinels maps wire error codes to engine sentinels, so a remote
// caller's errors.Is checks behave exactly like an embedded one's.
// Index 0 is reserved for "no sentinel" — the remote error then only
// carries its message. Append-only: codes are wire format.
var wireSentinels = []error{
	nil,
	ErrClosed,
	ErrTxnDone,
	ErrReadOnly,
	ErrConflict,
	ErrNoSuchTable,
	ErrNoSuchColumn,
	ErrRowRange,
	ErrRowNotVisible,
	ErrTableExists,
	ErrType,
	ErrNotOLAP,
	ErrReplicaRead,
	ErrTooManySessions,
}

// errToWire finds the sentinel code for err (0 when none matches).
// ErrRowNotVisible is checked before ErrRowRange: the visibility error
// matches both under errors.Is and must keep its more specific code.
func errToWire(err error) uint8 {
	if errors.Is(err, ErrRowNotVisible) {
		for i, s := range wireSentinels {
			if s == ErrRowNotVisible {
				return uint8(i)
			}
		}
	}
	for i, s := range wireSentinels {
		if s != nil && errors.Is(err, s) {
			return uint8(i)
		}
	}
	return 0
}

// remoteError reconstructs a server-side error client-side: the full
// message, errors.Is-matching the coded sentinel (and, via the
// sentinel table order, ErrRowNotVisible's ErrRowRange aliasing).
type remoteError struct {
	base error
	msg  string
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Is(target error) bool {
	if e.base == nil {
		return false
	}
	if target == e.base {
		return true
	}
	// ErrRowNotVisible subsumes ErrRowRange, mirroring notVisibleError.
	return e.base == ErrRowNotVisible && target == ErrRowRange
}

func wireToErr(code uint8, msg string) error {
	var base error
	if int(code) < len(wireSentinels) {
		base = wireSentinels[code]
	}
	if base == nil && msg == "" {
		return fmt.Errorf("ankerdb: remote error")
	}
	return &remoteError{base: base, msg: msg}
}

// RemoteSession is a Session over a network connection to a served
// database (Dial). One connection, one in-flight request at a time;
// open transactions are server-side state and die with the connection.
type RemoteSession struct {
	mu     sync.Mutex
	conn   *repl.Conn
	closed bool
}

// Dial connects a remote session to a serving endpoint (WithServeAddr
// or NewServer) for the database registered under namespace ns (""
// means "default"). The returned session satisfies Session — code
// written against it runs unchanged against an embedded *DB.
func Dial(addr, ns string) (*RemoteSession, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := repl.NewConn(nc)
	if err := c.SendMessage(repl.MsgHello, repl.Hello{Role: repl.RoleSession, Namespace: ns}); err != nil {
		_ = c.Close()
		return nil, err
	}
	typ, payload, err := c.ReadMsg()
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	switch typ {
	case repl.MsgWelcome:
		return &RemoteSession{conn: c}, nil
	case repl.MsgErr:
		var we repl.WireErr
		_ = we.Decode(payload)
		_ = c.Close()
		return nil, wireToErr(we.Code, we.Msg)
	default:
		_ = c.Close()
		return nil, fmt.Errorf("ankerdb: unexpected handshake frame type %d", typ)
	}
}

// roundTrip ships one request and decodes its response, serialising
// in-flight requests (SessionTxn operations are synchronous).
func (s *RemoteSession) roundTrip(req *wireReq) (wireResp, error) {
	var resp wireResp
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return resp, ErrClosed
	}
	if err := s.conn.SendMessage(repl.MsgRequest, req); err != nil {
		return resp, fmt.Errorf("%w: %v", ErrClosed, err)
	}
	typ, payload, err := s.conn.ReadMsg()
	if err != nil {
		return resp, fmt.Errorf("%w: %v", ErrClosed, err)
	}
	switch typ {
	case repl.MsgResponse:
		if err := resp.Decode(payload); err != nil {
			return resp, err
		}
		if resp.Err != 0 || resp.Msg != "" {
			return resp, wireToErr(resp.Err, resp.Msg)
		}
		return resp, nil
	case repl.MsgErr:
		var we repl.WireErr
		_ = we.Decode(payload)
		return resp, wireToErr(we.Code, we.Msg)
	default:
		return resp, fmt.Errorf("ankerdb: unexpected response frame type %d", typ)
	}
}

// BeginTxn starts a remote transaction.
func (s *RemoteSession) BeginTxn(class TxnClass) (SessionTxn, error) {
	resp, err := s.roundTrip(&wireReq{Op: opBegin, Class: class})
	if err != nil {
		return nil, err
	}
	return &remoteTxn{s: s, id: resp.Txn, class: class, ts: resp.TS}, nil
}

// Stats fetches the served database's Stats snapshot — including the
// replication staleness fields a client bounds reads with.
func (s *RemoteSession) Stats() Stats {
	resp, err := s.roundTrip(&wireReq{Op: opStats})
	if err != nil || resp.Stats == nil {
		return Stats{}
	}
	return *resp.Stats
}

// Close drops the connection. Server-side, open transactions of this
// session are aborted; the database itself is untouched.
func (s *RemoteSession) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	return s.conn.Close()
}

// remoteTxn is one transaction on a RemoteSession.
type remoteTxn struct {
	s     *RemoteSession
	id    uint64
	class TxnClass
	ts    uint64
	done  bool
}

func (t *remoteTxn) Class() TxnClass    { return t.class }
func (t *remoteTxn) SnapshotTS() uint64 { return t.ts }

func (t *remoteTxn) op(req *wireReq) (wireResp, error) {
	if t.done {
		return wireResp{}, ErrTxnDone
	}
	req.Txn = t.id
	return t.s.roundTrip(req)
}

func (t *remoteTxn) Get(tab, col string, row int) (int64, error) {
	resp, err := t.op(&wireReq{Op: opGet, Tab: tab, Col: col, Row: row})
	if err != nil {
		return 0, err
	}
	return resp.Val, nil
}

func (t *remoteTxn) GetString(tab, col string, row int) (string, error) {
	resp, err := t.op(&wireReq{Op: opGetString, Tab: tab, Col: col, Row: row})
	if err != nil {
		return "", err
	}
	return resp.Str, nil
}

func (t *remoteTxn) Scan(tab, col string) ([]int64, error) {
	resp, err := t.op(&wireReq{Op: opScan, Tab: tab, Col: col})
	if err != nil {
		return nil, err
	}
	return resp.Vals, nil
}

func (t *remoteTxn) Lookup(tab, col string, v int64) ([]int, error) {
	resp, err := t.op(&wireReq{Op: opLookup, Tab: tab, Col: col, Val: v})
	if err != nil {
		return nil, err
	}
	return resp.Rows, nil
}

func (t *remoteTxn) Filter(tab, col string, lo, hi int64) ([]int, error) {
	resp, err := t.op(&wireReq{Op: opFilter, Tab: tab, Col: col, Lo: lo, Hi: hi})
	if err != nil {
		return nil, err
	}
	return resp.Rows, nil
}

func (t *remoteTxn) Aggregate(tab, col string, agg Agg) (int64, error) {
	resp, err := t.op(&wireReq{Op: opAggregate, Tab: tab, Col: col, Agg: agg})
	if err != nil {
		return 0, err
	}
	return resp.Val, nil
}

func (t *remoteTxn) Set(tab, col string, row int, v int64) error {
	_, err := t.op(&wireReq{Op: opSet, Tab: tab, Col: col, Row: row, Val: v})
	return err
}

func (t *remoteTxn) SetString(tab, col string, row int, s string) error {
	_, err := t.op(&wireReq{Op: opSetString, Tab: tab, Col: col, Row: row, Str: s})
	return err
}

// Insert flattens the value map: per column a name, an int64
// or string payload, and which of the two it is. Engine-side type
// dispatch (Varchar wants string, everything else int64) is preserved.
func (t *remoteTxn) Insert(tab string, vals map[string]any) (int, error) {
	req := &wireReq{Op: opInsert, Tab: tab}
	for name, v := range vals {
		req.Names = append(req.Names, name)
		switch x := v.(type) {
		case int64:
			req.Vals = append(req.Vals, x)
			req.Strs = append(req.Strs, "")
			req.IsStr = append(req.IsStr, false)
		case int:
			req.Vals = append(req.Vals, int64(x))
			req.Strs = append(req.Strs, "")
			req.IsStr = append(req.IsStr, false)
		case string:
			req.Vals = append(req.Vals, 0)
			req.Strs = append(req.Strs, x)
			req.IsStr = append(req.IsStr, true)
		default:
			return 0, fmt.Errorf("%w: unsupported insert value type %T for %q", ErrType, v, name)
		}
	}
	resp, err := t.op(req)
	if err != nil {
		return 0, err
	}
	return resp.Row, nil
}

func (t *remoteTxn) Delete(tab string, row int) error {
	_, err := t.op(&wireReq{Op: opDelete, Tab: tab, Row: row})
	return err
}

func (t *remoteTxn) Commit() error {
	_, err := t.op(&wireReq{Op: opCommit})
	t.done = true
	return err
}

func (t *remoteTxn) Abort() error {
	if t.done {
		return nil
	}
	_, err := t.op(&wireReq{Op: opAbort})
	t.done = true
	return err
}
