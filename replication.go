package ankerdb

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ankerdb/internal/mvcc"
	"ankerdb/internal/repl"
	"ankerdb/internal/telemetry"
	"ankerdb/internal/wal"
)

// Replication: a primary streams its durable WAL record payloads —
// commit, bulk-load and schema-log records, byte-identical to what its
// own crash recovery would replay — to read replicas over the framed
// protocol in internal/repl. A replica applies the stream continuously
// through the primary's own mutators — commit install steps
// (installWrite, installRowOp, rowDeltas), table-DDL barrier
// (tableBarrier), online index build (createIndex, reindexColumn) and
// load fill (fillLoad) — guarded by the idempotent-by-commitTS rules
// recovery uses (newerWrite, rowOpFloor), so primary and replica state
// converge by construction: replication IS recovery over the wire,
// with a checkpoint streamed over the connection as the bootstrap
// instead of a checkpoint file: the same encoder, decoder and
// derived-state rebuild recovery uses.
//
// Ordering. The publisher (internal/repl) releases records in WAL
// append order, commits gated behind the completion watermark, and
// in-band heartbeats carry watermarks that every covered record
// precedes. The replica applies single-threaded, taking the involved
// shard commit locks per record in ascending order like a commit batch,
// and advances its own oracle only on heartbeats (ObserveCommitted) —
// so replica OLAP snapshots always read a prefix of the primary's
// committed history, never a torn middle. Records applied above the
// last heartbeat are invisible to those snapshots, so an index the
// replica builds takes its floor above them (publishIndex).
//
// Resume vs bootstrap. Within a process lifetime a replica reconnects
// with AfterTS = its completed watermark: records applied beyond the
// last heartbeat all carry higher timestamps (the publisher's FIFO
// guarantees it) and re-apply idempotently when the primary's retained
// history replays them. Across a replica restart the watermark is not
// recoverable (its own WAL holds applied-beyond-watermark records that
// recovery seeds past), so a restarted replica re-bootstraps from a
// fresh snapshot — which fast-forwards whatever recovered state it
// already had.

// replHistCap is the publisher's retained-record window: how far back
// a reconnecting replica can resume without a re-bootstrap.
const replHistCap = 1 << 16

// replicaSendBuf is the per-replica bounded stream buffer (records). A
// replica a full buffer behind is disconnected rather than allowed to
// stall the primary's commit path.
const replicaSendBuf = 1 << 14

// dialHandshakeTimeout bounds the replica's hello/welcome exchange on
// a fresh connection.
const dialHandshakeTimeout = 10 * time.Second

// bootstrapFrameTimeout bounds each bootstrap frame read. Per frame,
// not overall: a large snapshot legitimately takes long, but a primary
// that accepts and then stalls must fail the bootstrap — without a
// deadline a stall during the initial bootstrap hangs Open forever.
const bootstrapFrameTimeout = 30 * time.Second

// startPublisher wires the WAL append hooks into a record publisher.
// Called during Open, before the DB is shared, on any serving database
// with durability enabled.
func (db *DB) startPublisher() {
	db.pub = repl.NewPublisher(replHistCap)
	db.wal.OnAppend = func(_ int, recs []wal.CommitRecord) {
		for _, r := range recs {
			db.pub.Stage(repl.Record{TS: r.TS, Type: repl.MsgCommit, Payload: r.Encode()})
		}
	}
	db.wal.OnLoad = func(_ int, recs []wal.LoadRecord) {
		for _, r := range recs {
			db.pub.Stage(repl.Record{Type: repl.MsgLoad, Payload: r.Encode()})
		}
	}
	db.wal.OnSchema = func(seq uint64, payload []byte) {
		db.pub.Stage(repl.Record{Type: repl.MsgSchema, Payload: schemaFrame(seq, payload)})
	}
}

// schemaFrame prefixes a raw schema-log payload with its log sequence.
// The sequence is the replica's exactly-once key: a bootstrap's
// schema-file replay overlaps the live stream, and blind re-application
// of a drop or truncate marker would not be idempotent.
func schemaFrame(seq uint64, payload []byte) []byte {
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint64(buf, seq)
	copy(buf[8:], payload)
	return buf
}

func splitSchemaFrame(p []byte) (uint64, []byte, error) {
	if len(p) < 8 {
		return 0, nil, fmt.Errorf("ankerdb: short schema frame (%d bytes)", len(p))
	}
	return binary.LittleEndian.Uint64(p), p[8:], nil
}

// replPeer is the primary-side state of one connected replica feed.
type replPeer struct {
	acked atomic.Uint64
}

// addPeer registers a connected replica feed.
func (db *DB) addPeer(p *replPeer) {
	db.peerMu.Lock()
	if db.peers == nil {
		db.peers = map[*replPeer]struct{}{}
	}
	db.peers[p] = struct{}{}
	db.peerMu.Unlock()
}

func (db *DB) removePeer(p *replPeer) {
	db.peerMu.Lock()
	delete(db.peers, p)
	db.peerMu.Unlock()
}

// noteAck records a replica's applied watermark and observes its lag —
// the primary's completed commit count beyond what the replica has
// applied, the bounded-staleness number the ISSUE's serving contract
// reports (Stats.MaxReplicaLag, ankerdb_repl_lag_commits).
func (db *DB) noteAck(p *replPeer, appliedTS uint64) {
	p.acked.Store(appliedTS)
	if c := db.oracle.Completed(); c > appliedTS {
		db.tel.replLag.Observe(time.Duration(c - appliedTS))
	} else {
		db.tel.replLag.Observe(0)
	}
}

// maxReplicaLag returns the worst lag over connected replica feeds, in
// commit timestamps: completed watermark minus the replica's newest
// acknowledged applied timestamp. Feeds that have not acked yet count
// from zero (full lag).
func (db *DB) maxReplicaLag() uint64 {
	c := db.oracle.Completed()
	var max uint64
	db.peerMu.Lock()
	for p := range db.peers {
		if a := p.acked.Load(); c > a && c-a > max {
			max = c - a
		}
	}
	db.peerMu.Unlock()
	return max
}

// streamBootstrap ships a freshly attached replica the full schema log
// raw (so the replica reproduces the exact table-slot assignment the
// commit records address), then a checkpoint of every live table,
// streamed in MsgCheckpoint chunks: the same body Checkpoint writes to
// a file, in O(chunk) memory however large the tables are. The caller
// attached the replica's subscriber BEFORE calling — records released
// during the capture are duplicated into the checkpoint, which the
// replay-by-timestamp rules make harmless; the reverse order would
// lose them.
func (db *DB) streamBootstrap(c *repl.Conn) error {
	if err := db.wal.ReplaySchemaRaw(func(seq uint64, payload []byte) error {
		return c.WriteMsg(repl.MsgSchema, schemaFrame(seq, payload))
	}); err != nil {
		return err
	}
	g, tabs, release := db.pinCheckpoint()
	defer release()
	w := repl.NewChunkWriter(c)
	if err := wal.EncodeCheckpoint(w, g.ts, len(tabs), func(cw *wal.CheckpointWriter) error {
		return writeTableSections(g, tabs, cw)
	}); err != nil {
		return err
	}
	return w.Close()
}

// replicaState is a replica's connector: the background goroutine that
// dials the primary, bootstraps or resumes, and applies the stream.
type replicaState struct {
	db   *DB
	addr string
	ns   string

	quit chan struct{}
	done chan struct{}

	cmu sync.Mutex
	cur *repl.Conn

	connected  atomic.Bool
	reconnects atomic.Uint64
	bootstraps atomic.Uint64
	applied    atomic.Uint64 // newest commit-record timestamp applied
	sourceW    atomic.Uint64 // newest heartbeat watermark observed
	frames     atomic.Uint64 // stream records applied

	// schemaSeq is the next schema-log sequence to apply; lower-seq
	// records (bootstrap/stream overlap, resume replays) are skipped.
	// Touched only by the connector goroutine (and Open, before it
	// starts).
	schemaSeq uint64
}

// stop halts the connector: closes the quit channel, cuts the current
// connection out from under a blocking read, and waits for the
// goroutine to drain. Idempotent.
func (r *replicaState) stop() {
	r.cmu.Lock()
	select {
	case <-r.quit:
	default:
		close(r.quit)
	}
	if r.cur != nil {
		_ = r.cur.Close()
	}
	r.cmu.Unlock()
	<-r.done
}

// noteApplied raises the applied high-water mark to ts. Only the
// connector goroutine (and Open, before it starts) writes it.
func (r *replicaState) noteApplied(ts uint64) {
	if ts > r.applied.Load() {
		r.applied.Store(ts)
	}
}

func (r *replicaState) stopping() bool {
	select {
	case <-r.quit:
		return true
	default:
		return false
	}
}

func (r *replicaState) setConn(c *repl.Conn) {
	r.cmu.Lock()
	r.cur = c
	if r.stopping() && c != nil {
		_ = c.Close()
	}
	r.cmu.Unlock()
}

// dial connects to the primary and performs the hello/welcome
// handshake. afterTS = 0 requests a full bootstrap; a positive value
// asks to resume above it (the primary may still answer with a
// bootstrap when its retained history no longer reaches back).
func (r *replicaState) dial(afterTS uint64) (*repl.Conn, repl.Welcome, error) {
	nc, err := net.DialTimeout("tcp", r.addr, 5*time.Second)
	if err != nil {
		return nil, repl.Welcome{}, err
	}
	c := repl.NewConn(nc)
	// The handshake is a bounded exchange: deadline it so a primary that
	// accepts and stalls errors out instead of hanging the caller (Open,
	// on the initial bootstrap). Cleared on success — the live stream
	// blocks on reads indefinitely by design.
	_ = c.SetDeadline(time.Now().Add(dialHandshakeTimeout))
	if err := c.SendMessage(repl.MsgHello, repl.Hello{Role: repl.RoleReplica, Namespace: r.ns, AfterTS: afterTS}); err != nil {
		_ = c.Close()
		return nil, repl.Welcome{}, err
	}
	typ, payload, err := c.ReadMsg()
	if err != nil {
		_ = c.Close()
		return nil, repl.Welcome{}, err
	}
	_ = c.SetDeadline(time.Time{})
	switch typ {
	case repl.MsgWelcome:
		var w repl.Welcome
		if err := w.Decode(payload); err != nil {
			_ = c.Close()
			return nil, repl.Welcome{}, err
		}
		// The welcome carries the primary's completed watermark: seed
		// the staleness report now instead of waiting for the first
		// heartbeat, so ReplicaSourceTS is meaningful from the instant
		// the connection is live.
		if w.TS > r.sourceW.Load() {
			r.sourceW.Store(w.TS)
		}
		return c, w, nil
	case repl.MsgErr:
		var we repl.WireErr
		_ = we.Decode(payload)
		_ = c.Close()
		return nil, repl.Welcome{}, fmt.Errorf("ankerdb: primary refused replica: %s", we.Msg)
	default:
		_ = c.Close()
		return nil, repl.Welcome{}, fmt.Errorf("ankerdb: unexpected handshake frame type %d", typ)
	}
}

// runBootstrap consumes a bootstrap — schema frames, then the
// checkpoint body — through the decoder and section loader recovery
// uses, rebuilds the derived state recovery rebuilds, and publishes the
// checkpoint timestamp. The caller holds db.olapGate write-side (the
// load fast-forwards arrays in place under pinned OLAP readers
// otherwise) and, on a durable replica, checkpoints AFTER the gate is
// released — the bootstrap's data is not in the replica's own WAL, and
// Checkpoint itself pins a generation under the gate's read side.
// Frame reads are individually deadlined so a primary that accepts and
// stalls fails the bootstrap instead of hanging the caller.
func (r *replicaState) runBootstrap(c *repl.Conn) error {
	db := r.db
	var maxStamp uint64
	body := repl.NewChunkReader(c, bootstrapFrameTimeout, r.applySchema)
	ts, err := wal.DecodeCheckpoint("bootstrap from "+r.addr, body, func(_ uint64, ntables int, cr *wal.CheckpointReader) (err error) {
		maxStamp, err = db.loadTableSections(ntables, cr)
		return err
	})
	if err != nil {
		return err
	}
	// The live stream blocks on reads indefinitely by design: clear the
	// per-frame bootstrap deadline before handing the connection over.
	_ = c.SetReadDeadline(time.Time{})
	db.rebuildDerivedState()
	seed := max(ts, maxStamp)
	db.oracle.ObserveCommitted(seed)
	// Retire the current snapshot generation: across a re-bootstrap the
	// manager's own pin keeps it alive with its pre-bootstrap timestamp
	// and column-snapshot cache, and a reader acquiring it afterwards
	// would see fast-forwarded write timestamps above its ts with no
	// version-chain entries to repair from. Forcing staleness makes the
	// next acquire rotate to a generation born after the rebuild.
	db.snaps.stale.Store(true)
	r.noteApplied(seed)
	r.bootstraps.Add(1)
	db.tel.rec.Record(telemetry.EvReplBootstrap, int64(ts), int64(seed), 0)
	return nil
}

// applySchema applies one sequence-stamped schema frame: skip if the
// sequence was already applied, else append the raw payload to the
// replica's own schema log (byte-exact prefix of the primary's — the
// property that keeps slot assignment and a future re-bootstrap's
// sequence numbering aligned) and mirror the effect in memory.
func (r *replicaState) applySchema(frame []byte) error {
	seq, payload, err := splitSchemaFrame(frame)
	if err != nil {
		return err
	}
	if seq < r.schemaSeq {
		return nil // bootstrap/stream overlap or resume replay: already applied
	}
	if seq > r.schemaSeq {
		return fmt.Errorf("ankerdb: schema sequence gap: got %d, want %d", seq, r.schemaSeq)
	}
	db := r.db
	if db.wal != nil {
		if err := db.wal.AppendSchemaRaw(payload); err != nil {
			return err
		}
	}
	rec, err := wal.DecodeSchemaPayload(payload)
	if err != nil {
		return err
	}
	switch {
	case rec.Table != nil:
		if err := db.createTable(schemaOf(*rec.Table), rec.Table.Rows, false); err != nil {
			return err
		}
	case rec.Index != nil:
		r.applyIndexDDL(*rec.Index)
	case rec.DDL != nil:
		db.applyTableDDL(*rec.DDL)
		// The marker's timestamp is a commit TS the primary issued, and
		// it can run ahead of both applied commit records and the next
		// heartbeat (the marker streams immediately). Fold it into the
		// applied high-water so Promote seeds the oracle above it —
		// otherwise a promoted replica could issue commit timestamps at
		// or below an applied truncate barrier, leaving the new rows
		// invisible to it and recovery's truncate replay to kill them.
		r.noteApplied(rec.DDL.TS)
	}
	r.schemaSeq = seq + 1
	return nil
}

// applyIndexDDL mirrors an online CreateIndex/DropIndex at the
// replica, through CreateIndex's own build with the floor raised to
// the newest applied record. Tolerant of records that do not resolve
// (dropped tables): skipped like recovery skips them.
func (r *replicaState) applyIndexDDL(rec wal.IndexDDLRecord) {
	c, err := r.db.lookup(rec.Table, rec.Column)
	if err != nil {
		return
	}
	if rec.Drop {
		c.idx.Store(nil)
		return
	}
	if kind := IndexKind(rec.Kind); kind.Valid() {
		_ = r.db.createIndex(c, kind, r.applied.Load())
	}
}

// applyTableDDL mirrors a DropTable/Truncate marker at the replica
// through the primary's barrier, at the RECORD's timestamp — the stamp
// that decides exactly which applied rows the barrier covers, same as
// recovery replay. The primary logs the marker under every shard lock,
// so the stream orders it after every commit its timestamp covers and
// before every later one.
func (db *DB) applyTableDDL(rec wal.TableDDLRecord) {
	t, err := db.lookupTable(rec.Name)
	if err != nil {
		return
	}
	db.lockAllShards()
	db.tableBarrier(t, rec.Op, rec.TS)
	db.unlockAllShards()
}

// applyCommit installs one streamed commit record into live replica
// state through the primary's install steps (installWrite,
// installRowOp, rowDeltas), under the involved shard commit locks
// taken in ascending order like a commit batch takes them, and logs it
// to the replica's own WAL in its lowest shard's segment series, the
// one a commit batch appends to.
// Only replay adds the idempotence guards — newer-wins per written
// cell (newerWrite), the birth/death floor per row op (rowOpFloor) —
// so duplicated records (bootstrap overlap, resume replays) are
// no-ops. It returns whether anything applied: a fully skipped
// duplicate is not re-logged.
func (r *replicaState) applyCommit(rec wal.CommitRecord) (bool, error) {
	db := r.db
	cols, tabs, ok, err := db.resolveCommit(rec, nil, nil)
	if !ok {
		return false, err // beyond the applied schema prefix: skip whole
	}
	var ids []int
	for _, c := range cols {
		ids = addShard(ids, db.shardOf(c.id))
	}
	for _, op := range rec.Ops {
		ids = addShard(ids, db.shardOf(mvcc.VisColumnID(op.Table)))
	}
	shards := db.lockShards(ids)

	// Rows this record itself births skip the version-chain push, like
	// the primary's install (txn RowInserted).
	inserted := func(tab, row int) bool {
		for _, op := range rec.Ops {
			if !op.Del && op.Table == tab && op.Row == row {
				return true
			}
		}
		return false
	}
	applied := false
	ts := rec.TS
	for i, w := range rec.Writes {
		c := cols[i]
		if !c.newerWrite(w.Row, ts) {
			continue
		}
		val := w.Val
		if w.HasStr {
			val = c.dict.Encode(w.Str)
		}
		c.installWrite(w.Row, val, ts, inserted(w.Table, w.Row))
		applied = true
	}
	var deltas rowDeltas
	for i, op := range rec.Ops {
		t := tabs[i]
		if ts <= t.rowOpFloor(op.Row) {
			continue
		}
		db.installRowOp(t, op.Row, op.Del, ts)
		deltas.add(t, op.Del)
		if !op.Del {
			// The primary's allocator reserved the row; keep the replica's
			// high-water mark over it so Vacuum's reclaim sweep sees it.
			t.amu.Lock()
			t.next = max(t.next, op.Row+1)
			t.amu.Unlock()
		}
		applied = true
	}
	deltas.publish(ts)
	unlockShards(shards)
	if !applied {
		return false, nil
	}
	r.noteApplied(ts)
	if db.wal != nil {
		// Outside the shard locks: the replica's own log does not gate
		// visibility (heartbeats do). Failure poisons the log and
		// surfaces through Stats/metrics; serving from memory stays
		// correct.
		_ = db.wal.AppendCommits(ids[0], []wal.CommitRecord{rec})
	}
	return true, nil
}

// applyLoad replays one streamed bulk-load chunk through recovery's
// fill under the column's shard lock, rebuilds the column's index like
// the primary's post-load reindex (floor raised to the newest applied
// record), and logs the chunk to the replica's own WAL.
func (r *replicaState) applyLoad(rec wal.LoadRecord) {
	db := r.db
	c, ok := db.recoveredLoadColumn(rec)
	if !ok {
		return
	}
	s := db.shards[db.shardOf(c.id)]
	s.mu.Lock()
	c.fillLoad(rec)
	s.mu.Unlock()
	db.reindexColumn(c, r.applied.Load())
	if db.wal != nil {
		_ = db.wal.AppendLoads(s.id, []wal.LoadRecord{rec})
	}
}

// run is the connector's stream-and-reconnect loop: apply frames until
// the connection dies, then redial with exponential backoff, resuming
// from the completed watermark (or re-bootstrapping when the primary's
// history no longer reaches back).
func (r *replicaState) run(c *repl.Conn) {
	defer close(r.done)
	db := r.db
	for {
		r.setConn(c)
		r.connected.Store(true)
		err := r.stream(c)
		r.connected.Store(false)
		_ = c.Close()
		r.setConn(nil)
		if r.stopping() {
			return
		}
		db.tel.rec.RecordNote(telemetry.EvReplDisconnect, 0, 0, int64(db.oracle.Completed()), fmt.Sprint(err))
		backoff := 50 * time.Millisecond
		for {
			select {
			case <-r.quit:
				return
			case <-time.After(backoff):
			}
			nc, welcome, derr := r.dial(db.oracle.Completed())
			if derr != nil {
				if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				continue
			}
			r.reconnects.Add(1)
			if welcome.Snapshot {
				// History no longer reaches back: re-bootstrap in place
				// (fast-forward; see loadTableSections). Write side of the
				// OLAP gate: the rebuild overwrites arrays without pushing
				// displaced values into version chains and resets the
				// visibility logs, so every pinned generation must drain
				// first and new OLAP begins block until the state is
				// consistent again.
				r.setConn(nc)
				db.olapGate.Lock()
				berr := r.runBootstrap(nc)
				db.olapGate.Unlock()
				if berr != nil {
					_ = nc.Close()
					r.setConn(nil)
					if r.stopping() {
						return
					}
					continue
				}
				if db.wal != nil {
					// The snapshot bytes never touched the replica's own
					// WAL: checkpoint so a restart recovers them. Failure
					// is not fatal to serving — a restart would just
					// re-bootstrap.
					_ = db.Checkpoint()
				}
			}
			c = nc
			break
		}
	}
}

// stream applies frames from one live connection until it errors.
func (r *replicaState) stream(c *repl.Conn) error {
	db := r.db
	for {
		typ, payload, err := c.ReadMsg()
		if err != nil {
			return err
		}
		switch typ {
		case repl.MsgCommit:
			rec, err := wal.DecodeCommitPayload(payload)
			if err != nil {
				return err
			}
			if _, err := r.applyCommit(rec); err != nil {
				return err
			}
			r.frames.Add(1)
		case repl.MsgLoad:
			rec, err := wal.DecodeLoadPayload(payload)
			if err != nil {
				return err
			}
			r.applyLoad(rec)
			r.frames.Add(1)
		case repl.MsgSchema:
			if err := r.applySchema(payload); err != nil {
				return err
			}
			r.frames.Add(1)
		case repl.MsgHeartbeat:
			var hb repl.Heartbeat
			if err := hb.Decode(payload); err != nil {
				return err
			}
			r.sourceW.Store(hb.Watermark)
			// Every record at or below the watermark precedes this frame
			// (publisher contract), so the replica's committed prefix is
			// complete through it: publish to local readers, ack upstream.
			db.oracle.ObserveCommitted(hb.Watermark)
			if err := c.SendMessage(repl.MsgAck, repl.Ack{AppliedTS: db.oracle.Completed()}); err != nil {
				return err
			}
		case repl.MsgErr:
			var we repl.WireErr
			_ = we.Decode(payload)
			return fmt.Errorf("ankerdb: primary closed stream: %s", we.Msg)
		default:
			return fmt.Errorf("ankerdb: unexpected stream frame type %d", typ)
		}
	}
}

// Promote turns a replica into a writable primary — the failover path.
// requireTS is the caller's data-loss guard: the newest commit
// timestamp known to be acknowledged anywhere (typically the max
// completed watermark over surviving replicas); a replica whose
// applied watermark has not reached it refuses with ErrStalePromotion
// and KEEPS REPLICATING, so the caller can promote the replica that is
// ahead instead. On success the connector stops, the oracle is
// re-seeded above every applied timestamp, the row allocators are
// recomputed from the applied arrays (free-list entries consumed by
// streamed inserts must not be handed out again), and local writes are
// accepted. Clients re-resolve to the promoted address themselves —
// the engine does not own service discovery.
func (db *DB) Promote(requireTS uint64) error {
	r := db.rep
	if r == nil || db.promoted.Load() {
		return ErrNotReplica
	}
	if w := db.oracle.Completed(); w < requireTS {
		return fmt.Errorf("%w: applied watermark %d behind required %d", ErrStalePromotion, w, requireTS)
	}
	r.stop()
	db.lockAllShards()
	// Applied-beyond-watermark records can sit above Completed(): seed
	// above ALL of them so freshly issued timestamps never collide.
	seed := r.applied.Load()
	if c := db.oracle.Completed(); c > seed {
		seed = c
	}
	db.oracle.Seed(seed)
	// Allocators only: the visibility logs stay — pinned OLAP readers
	// still depend on them.
	for _, t := range db.liveTables() {
		t.rebuildAllocator()
	}
	db.unlockAllShards()
	db.promoted.Store(true)
	db.tel.rec.Record(telemetry.EvReplPromote, int64(seed), int64(requireTS), 0)
	return nil
}

// replicaWriteGuard rejects local mutation on an unpromoted replica.
func (db *DB) replicaWriteGuard() error {
	if db.rep != nil && !db.promoted.Load() {
		return ErrReplicaRead
	}
	return nil
}

// initReplication wires the serving and replica tiers at Open time:
// the WAL publisher and listener on a serving node, the synchronous
// initial bootstrap plus background connector on a replica.
func (db *DB) initReplication(cfg *config) error {
	ns := cfg.namespace
	if ns == "" {
		ns = "default"
	}
	if db.wal != nil && (cfg.serveAddr != "" || cfg.replicaOf != "") {
		db.startPublisher()
	}
	if cfg.replicaOf != "" {
		r := &replicaState{
			db:   db,
			addr: cfg.replicaOf,
			ns:   ns,
			quit: make(chan struct{}),
			done: make(chan struct{}),
		}
		if db.wal != nil {
			// A recovered replica's schema log is a byte-exact prefix of
			// the primary's: continue the sequence instead of re-applying.
			r.schemaSeq = db.wal.SchemaRecords()
		}
		db.rep = r
		// Always a fresh bootstrap at open: the completed watermark is
		// not recoverable across a restart (see the package comment), and
		// the snapshot fast-forwards recovered state.
		c, welcome, err := r.dial(0)
		if err != nil {
			close(r.done)
			return err
		}
		r.setConn(c)
		if welcome.Snapshot {
			// The DB is not shared yet, but the auto-checkpointer may
			// already be running (Open starts it before replication):
			// hold the OLAP gate so its generation pin cannot span the
			// in-place fill.
			db.olapGate.Lock()
			err := r.runBootstrap(c)
			db.olapGate.Unlock()
			if err != nil {
				_ = c.Close()
				close(r.done)
				return err
			}
			if db.wal != nil {
				// The snapshot bytes never touched the replica's own WAL:
				// checkpoint now so a restart recovers them instead of
				// re-bootstrapping. Fatal at Open, unlike on reconnect —
				// the caller asked for a durable replica it does not have.
				if err := db.Checkpoint(); err != nil {
					_ = c.Close()
					close(r.done)
					return err
				}
			}
		}
		// The connection is live before the apply loop starts: report
		// it so Stats read between Open returning and run's first
		// iteration do not claim a disconnected replica.
		r.connected.Store(true)
		go r.run(c)
	}
	if cfg.serveAddr != "" {
		srv, err := newServer(cfg.serveAddr, cfg.maxSessions)
		if err != nil {
			return err
		}
		srv.Register(ns, db)
		db.srv = srv
	}
	return nil
}

// ServeAddr returns the WithServeAddr listener's resolved address
// (host:0 resolves to the picked port), or "" when not serving.
func (db *DB) ServeAddr() string {
	if db.srv == nil {
		return ""
	}
	return db.srv.Addr()
}
