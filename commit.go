package ankerdb

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ankerdb/internal/mvcc"
	"ankerdb/internal/storage"
	"ankerdb/internal/telemetry"
	"ankerdb/internal/wal"
)

// The commit pipeline replaces the paper's single serialized commit
// phase (the Figure 11 scaling ceiling) with a sharded, batched
// group-commit design:
//
//   - Columns are partitioned onto commit shards by a hash of their
//     (table, column) address. Each shard owns a commit lock and the
//     recent-commits list used for precision-locking validation of the
//     columns routed to it, so transactions with disjoint footprints
//     validate and install in parallel.
//   - Every commit is batched: a committer enqueues on the queue of the
//     lowest shard in its footprint, and the first to take that shard's
//     lock drains the queue, validates the whole batch under one lock
//     acquisition, and stamps it with consecutive commit timestamps
//     from a single oracle block allocation.
//   - A batch whose requests span more shards takes the locks of those
//     higher shards in ascending order before it allocates timestamps.
//     Every queued request's lowest shard is the queue's own, so all
//     shard locks are taken in one global ascending order
//     (deadlock-free), and cross-shard commits group-commit like any
//     other.
//
// Correctness relies on two properties. First, the oracle's completion
// watermark only advances over contiguous timestamp prefixes, so a
// commit never becomes visible to new transactions before all
// earlier-stamped commits are also visible, even though shards
// materialize out of order. Second, a transaction's validation holds
// the locks of every shard its reads are routed to through its own
// timestamp allocation, so every conflicting earlier-stamped commit is
// already in that shard's recent list when validation runs, and every
// later-stamped commit will in turn see this transaction's record.

// commitShard is one partition of the commit pipeline.
type commitShard struct {
	// id is the shard's index, which is also its WAL segment series.
	id int

	// mu is the shard commit lock: it serializes validation, timestamp
	// allocation, and version-chain installation for the columns routed
	// to this shard, and snapshot capture of those columns.
	mu sync.Mutex

	// recent holds the commit records of transactions that wrote this
	// shard's columns, for precision-locking validation.
	recent *mvcc.RecentList

	qmu   sync.Mutex
	queue []*commitReq

	// Batch-leader scratch, guarded by mu and reused across batches:
	// marks flags the higher shards a drained batch needs, held lists
	// this shard and those shards in ascending order, and done the
	// requests that installed.
	marks []bool
	held  []*commitShard
	done  []*commitReq
}

// drain takes the current queue. The caller holds the shard commit
// lock, so every drained request is processed before the lock drops.
func (s *commitShard) drain() []*commitReq {
	s.qmu.Lock()
	batch := s.queue
	s.queue = nil
	s.qmu.Unlock()
	return batch
}

// commitReq is one transaction waiting in its lowest shard's
// group-commit queue. Txn embeds it, so a commit allocates no request.
type commitReq struct {
	st     *mvcc.TxnState
	epochs []tableEpoch // DDL epochs recorded at staging time (ddl.go)
	// ids are the footprint's shards, ascending and distinct; ids[0]
	// owns the queue. idBuf backs footprints of up to two shards.
	ids   []int
	idBuf [2]int
	ts    uint64 // commit timestamp, set by the leader
	// err is the outcome. The leader writes it under the queue shard's
	// lock and then sets ready, so the committer reads it either after
	// taking that lock itself or after observing ready.
	err   error
	ready atomic.Bool
}

// finish delivers req's outcome; the leader must not touch req after.
func (req *commitReq) finish(err error) {
	req.err = err
	req.ready.Store(true)
}

func newCommitShards(n int) []*commitShard {
	shards := make([]*commitShard, n)
	for i := range shards {
		shards[i] = &commitShard{id: i, recent: mvcc.NewRecentList(), marks: make([]bool, n)}
	}
	return shards
}

// shardOf routes a column to its commit shard.
func (db *DB) shardOf(id mvcc.ColumnID) int {
	return storage.ShardOf(id.Table, id.Col, len(db.shards))
}

// addShard inserts shard id into ids, which stay ascending and distinct.
func addShard(ids []int, id int) []int {
	i, found := slices.BinarySearch(ids, id)
	if found {
		return ids
	}
	return slices.Insert(ids, i, id)
}

// lockShards takes the commit locks of shards ids in ascending order —
// deadlock-free by global ordering — and returns the locked shards.
func (db *DB) lockShards(ids []int) []*commitShard {
	shards := make([]*commitShard, len(ids))
	for i, id := range ids {
		shards[i] = db.shards[id]
		shards[i].mu.Lock()
	}
	return shards
}

// unlockShards releases lockShards' locks in reverse order.
func unlockShards(shards []*commitShard) {
	for i := len(shards) - 1; i >= 0; i-- {
		shards[i].mu.Unlock()
	}
}

// lockShard takes s's commit lock. TryLock first so the uncontended
// path pays neither a clock read nor an observation; the lock-wait
// histogram counts contended acquisitions only.
func (db *DB) lockShard(s *commitShard) {
	if s.mu.TryLock() {
		return
	}
	wait := time.Now()
	s.mu.Lock()
	db.tel.commitLockWait.Observe(time.Since(wait))
}

// commit runs the commit phase for a transaction's staged writes:
// precision-locking validation against the recent commits of every
// shard it touched, then in-place materialisation with displaced
// versions pushed onto the column version chains (write timestamp
// strictly before data, which the lock-free read protocol in
// column.valueAt relies on). req.epochs carries the DDL epochs the
// transaction recorded at staging time; a drop or truncate of any
// recorded table since then aborts the commit (ddlAborted) before
// anything installs.
func (db *DB) commit(req *commitReq) error {
	// The footprint: written, point-read and predicate columns, and
	// each mutated table's visibility pseudo-column.
	req.ids = req.idBuf[:0]
	if len(db.shards) == 1 {
		req.ids = append(req.ids, 0)
	} else {
		req.st.EachColumn(func(id mvcc.ColumnID) { req.ids = addShard(req.ids, db.shardOf(id)) })
	}
	if len(req.ids) > 1 {
		db.st.crossShard.Add(1)
	}
	return db.commitGrouped(db.shards[req.ids[0]], req)
}

// commitGrouped commits req through the group-commit queue of s, the
// lowest shard in its footprint. Every committer enqueues its request
// and then takes the shard lock; whichever committer gets the lock
// first drains the queue and processes the whole batch, so requests
// that pile up behind a busy shard are validated and stamped together.
// A committer whose request was processed by an earlier leader drains
// whatever newer requests queued meanwhile (possibly none) and then
// picks up its own result.
//
// On success it blocks, outside every shard lock, until the completion
// watermark covers the request's timestamp, so a transaction beginning
// after Commit returns is guaranteed to read its writes
// (read-your-own-writes across out-of-order shard completion).
func (db *DB) commitGrouped(s *commitShard, req *commitReq) error {
	s.qmu.Lock()
	s.queue = append(s.queue, req)
	s.qmu.Unlock()

	// Fast path: an earlier leader may already have drained us while we
	// were enqueueing — skip the lock handoff entirely then. Requests
	// still queued are always drained eventually because their own
	// enqueuer is in the lock queue below.
	if !req.ready.Load() {
		db.lockShard(s)
		if batch := s.drain(); len(batch) > 0 {
			db.runBatch(s, batch)
		}
		s.mu.Unlock()
	}
	if req.err == nil {
		db.oracle.WaitCompleted(req.ts)
	}
	return req.err
}

// runBatch validates, stamps, and installs a batch of commits whose
// lowest shard is s, under s's lock (held by the caller): one
// recent-list lock acquisition per validated shard, one oracle block
// allocation for the whole batch, and — with durability enabled — one
// WAL append (one fsync under the default policy) covering every
// record in the batch, so durability costs amortize across the group
// exactly like the lock acquisition. Transactions that fail validation
// complete their timestamp slot as a no-op so the completion watermark
// stays contiguous.
func (db *DB) runBatch(s *commitShard, batch []*commitReq) {
	// The batch's higher shards are locked, ascending, before the
	// timestamp block is allocated: every shard a request reads is then
	// held through its timestamp allocation (see the header).
	held := append(s.held[:0], s)
	for _, req := range batch {
		for _, id := range req.ids[1:] {
			s.marks[id] = true
		}
	}
	for id := s.id + 1; id < len(s.marks); id++ {
		if s.marks[id] {
			s.marks[id] = false
			db.lockShard(db.shards[id])
			held = append(held, db.shards[id])
		}
	}

	db.st.commitBatches.Add(1)
	db.st.groupSizes[groupSizeBucket(len(batch))].Add(1)

	first := db.oracle.NextCommitTSBlock(len(batch))
	done := s.done[:0]
	var recs []wal.CommitRecord
	// Phase latency is accumulated across the batch with chained clock
	// marks (two reads per request) and observed once per batch — the
	// granularity the batch actually pays validation and installation
	// at. The marks are recorder-relative monotonic offsets: one read
	// serves both the phase accounting and, via RecordAt, the flight-
	// recorder timestamp of the request's commit/abort event, so the
	// whole batch adds no clock reads beyond the phase marks.
	tr := db.tel.rec
	var validateTime, installTime time.Duration
	mark := tr.Now()
	for i, req := range batch {
		req.ts = first + uint64(i)
		// The DDL epoch guard runs before validation: a table in the
		// footprint that was dropped or truncated since staging would
		// otherwise install into freed memory or resurrect truncated
		// rows through the index. The epoch load is ordered after the
		// DDL's bump by this shard's lock, which the DDL held.
		// Earlier transactions of this batch have already filed their
		// records, so intra-batch conflicts are caught too.
		err := ddlAborted(req.epochs)
		if err == nil {
			err = db.validate(req)
		}
		now := tr.Now()
		validateTime += now - mark
		mark = now
		if err != nil {
			db.st.conflicts.Add(1)
			db.oracle.CompleteNoop(req.ts)
			tr.RecordAt(telemetry.EvTxnAbort, int64(req.st.ID), telemetry.AbortConflict, int64(req.st.Begin), now)
			req.finish(err)
			continue
		}
		rec := db.install(req.st, req.ts)
		db.fileRecent(req.ids, rec)
		if db.wal != nil {
			recs = append(recs, db.redoRecord(rec))
		}
		done = append(done, req)
		now = tr.Now()
		installTime += now - mark
		mark = now
	}
	db.tel.commitValidate.Observe(validateTime)
	db.tel.commitInstall.Observe(installTime)
	// The batch's records become durable before any of its timestamps
	// complete: the visibility watermark never runs ahead of the
	// durable prefix, so a transaction can only read state that will
	// survive a crash. A WAL write failure is reported to every
	// committer in the batch, but the slots still complete — the
	// watermark must not stall — leaving the writes applied in memory;
	// see the walErr delivery below.
	var walErr error
	evAt := mark
	if len(recs) > 0 {
		walErr = db.wal.AppendCommits(s.id, recs)
		evAt = tr.Now()
		db.tel.commitFsync.Observe(evAt - mark)
		db.kickAutoCkpt()
	}
	for _, req := range done {
		db.oracle.Complete(req.ts)
		if walErr == nil {
			tr.RecordAt(telemetry.EvTxnCommit, int64(req.st.ID), 0, int64(req.st.Begin), evAt)
		} else {
			tr.RecordAt(telemetry.EvTxnAbort, int64(req.st.ID), telemetry.AbortError, int64(req.st.Begin), evAt)
		}
		req.finish(walErr)
	}
	if len(done) > 0 {
		db.maintainShards(held, uint64(len(done)))
	}
	unlockShards(held[1:])
	clear(done)
	s.done, s.held = done[:0], held[:0]
}

// validate runs precision-locking validation of req against the recent
// commits of every shard in its footprint. Transactions with an empty
// read set skip the walk: blind writes serialize at their commit
// timestamp and cannot have read stale data. This matters under the
// sharded pipeline, where the visibility watermark (and with it begin
// timestamps) can briefly lag behind the newest assigned timestamps,
// widening the window of records Validate would otherwise scan.
func (db *DB) validate(req *commitReq) error {
	if !req.st.HasReads() {
		return nil
	}
	for _, id := range req.ids {
		if ts := db.shards[id].recent.Validate(req.st); ts != 0 {
			return fmt.Errorf("%w: read set invalidated by commit %d", ErrConflict, ts)
		}
	}
	return nil
}

// fileRecent files rec in the recent list of every shard in ids: whole
// for a single-shard commit, otherwise split so each shard keeps only
// the entries routed to it.
func (db *DB) fileRecent(ids []int, rec mvcc.CommitRecord) {
	if len(ids) == 1 {
		db.shards[ids[0]].recent.Add(rec)
		return
	}
	for _, id := range ids {
		part := mvcc.CommitRecord{TS: rec.TS}
		for _, e := range rec.Writes {
			if db.shardOf(e.Col) == id {
				part.Writes = append(part.Writes, e)
			}
		}
		for _, e := range rec.VisWrites {
			if db.shardOf(e.Col) == id {
				part.VisWrites = append(part.VisWrites, e)
			}
		}
		if len(part.Writes) > 0 || len(part.VisWrites) > 0 {
			db.shards[id].recent.Add(part)
		}
	}
}

// install materialises t's staged writes and row ops at commit
// timestamp ts and returns the commit record. The caller holds the
// commit locks of every shard the writes and row ops are routed to
// (including each mutated table's visibility pseudo-column shard).
// A replica's applyCommit runs the same steps — installWrite per
// write, installRowOp per row op, one rowDeltas publish — over a
// streamed record, in the same order: all writes, then the row ops.
func (db *DB) install(t *mvcc.TxnState, ts uint64) mvcc.CommitRecord {
	writes := make([]mvcc.WriteEntry, 0, t.NumWrites())
	t.EachWrite(func(id mvcc.ColumnID, row int, val int64) {
		old := db.columnByID(id).installWrite(row, val, ts, t.RowInserted(id.Table, row))
		writes = append(writes, mvcc.WriteEntry{Col: id, Row: row, Old: old, New: val})
	})
	rec := mvcc.CommitRecord{TS: ts, Writes: writes}
	var deltas rowDeltas
	t.EachRowOp(func(op mvcc.RowOp) {
		tab := db.tableByIdx(op.Table)
		if op.Del {
			// Shadow every column of the dying row with its last value:
			// a concurrent reader whose predicate or point read covered
			// the row read state this deletion invalidates.
			for _, c := range tab.cols {
				old := c.data.Get(op.Row)
				rec.VisWrites = append(rec.VisWrites,
					mvcc.WriteEntry{Col: c.id, Row: op.Row, Old: old, New: old})
			}
		}
		rec.VisWrites = append(rec.VisWrites,
			mvcc.WriteEntry{Col: mvcc.VisColumnID(op.Table), Row: op.Row})
		rec.Ops = append(rec.Ops, op)
		db.installRowOp(tab, op.Row, op.Del, ts)
		deltas.add(tab, op.Del)
	})
	deltas.publish(ts)
	return rec
}

// installWrite materialises one write of val into row at commit
// timestamp ts and returns the value it displaced. The write timestamp
// is stored strictly before the data word, the ordering the lock-free
// read protocol and snapshot repair depend on.
//
// A write into a row the same commit inserts skips the version chain
// push: the displaced word is garbage from the slot's previous
// (reclaimed, below the GC floor) or never-born incarnation, which no
// reader can reach — every reader old enough to want it already sees
// the row as dead or unborn through the visibility arrays. Index
// maintenance rides the same critical section: an inserted row births
// one entry (Insert stages a write on every column); a value change
// death-stamps the displaced association and births the new one at the
// same timestamp, mirroring the chain push, while a same-value
// overwrite leaves the live entry alone.
func (c *column) installWrite(row int, val int64, ts uint64, inserted bool) int64 {
	if inserted {
		c.wts.SetU(row, ts)
		c.data.Set(row, val)
		c.widen(row, val)
		if ix := c.idx.Load(); ix != nil {
			ix.Add(val, row, ts)
		}
		return val
	}
	old := c.data.Get(row)
	c.chain.Push(row, old, c.wts.GetU(row))
	c.noteVersioned(row)
	c.wts.SetU(row, ts)
	c.data.Set(row, val)
	c.widen(row, val)
	if ix := c.idx.Load(); ix != nil && old != val {
		ix.Kill(old, row, ts)
		ix.Add(val, row, ts)
	}
	return old
}

// installRowOp births or kills row of t at commit timestamp ts, after
// every write of the commit is installed. A kill death-stamps each
// indexed column's live entry at the timestamp the visibility array
// records; a birth resets the death stamp before it stores the birth.
// A concurrent lock-free reader that observes the birth timestamp
// therefore observes the fully materialised row, and one that doesn't
// skips the row entirely.
func (db *DB) installRowOp(t *table, row int, del bool, ts uint64) {
	t.visMutated.Store(true)
	if del {
		for _, c := range t.cols {
			if ix := c.idx.Load(); ix != nil {
				ix.Kill(c.data.Get(row), row, ts)
			}
		}
		t.st.Death().SetU(row, ts)
		db.st.rowDeletes.Add(1)
		return
	}
	t.st.Death().SetU(row, 0)
	t.st.Birth().SetU(row, ts)
	db.st.rowInserts.Add(1)
}

// maintainShards counts the batch's committed transactions and runs
// the periodic version-chain vacuum every vacuumEvery commits, applied
// to the shards whose locks the caller holds. Recent-list pruning is
// NOT done here: it is driven by the oracle watermark hook through the
// background pruner (db.recentPruner), which covers idle shards too —
// a shard that stops committing would otherwise retain validation
// records until an explicit Vacuum.
func (db *DB) maintainShards(shards []*commitShard, added uint64) {
	n := db.st.commits.Add(added)
	if n/vacuumEvery == (n-added)/vacuumEvery {
		return
	}
	floor := db.gcFloor()
	start := time.Now()
	var removed int64
	for _, s := range shards {
		removed += db.vacuumShardChains(s, floor)
	}
	db.st.vacuums.Add(1)
	db.st.versionsGCed.Add(removed)
	elapsed := time.Since(start)
	db.tel.vacuum.Observe(elapsed)
	db.tel.rec.Record(telemetry.EvVacuum, removed, 0, elapsed.Nanoseconds())
}

// vacuumShardChains prunes the version chains of every column routed to
// shard s below floor. The caller holds s's commit lock, which excludes
// concurrent materialisation into those columns (pruning between a
// commit's chain push and its timestamp store could reap a version a
// concurrent reader still needs).
func (db *DB) vacuumShardChains(s *commitShard, floor uint64) int64 {
	var removed int64
	db.mu.RLock()
	tabs := append([]*table(nil), db.tabList...)
	db.mu.RUnlock()
	for _, t := range tabs {
		if t.dropped.Load() {
			continue
		}
		for _, c := range t.cols {
			if db.shards[db.shardOf(c.id)] != s {
				continue
			}
			removed += c.chain.Prune(floor, func(row int) uint64 { return c.wts.GetU(row) })
		}
	}
	return removed
}

// lockAllShards takes every shard commit lock in ascending order,
// stopping the whole commit pipeline. Used by the explicit Vacuum.
func (db *DB) lockAllShards() {
	for _, s := range db.shards {
		s.mu.Lock()
	}
}

func (db *DB) unlockAllShards() { unlockShards(db.shards) }

// groupSizeBucket maps a batch size to its histogram bucket: 1, 2, ≤4,
// ≤8, ≤16, ≤32, ≤64, >64.
func groupSizeBucket(n int) int {
	b := bits.Len(uint(n - 1))
	if b >= len(GroupCommitHist{}.Buckets) {
		b = len(GroupCommitHist{}.Buckets) - 1
	}
	return b
}
