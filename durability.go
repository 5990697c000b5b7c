package ankerdb

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"ankerdb/internal/index"
	"ankerdb/internal/mvcc"
	"ankerdb/internal/storage"
	"ankerdb/internal/telemetry"
	"ankerdb/internal/wal"
)

// Durability glue between the engine and internal/wal: redo-record
// conversion for the commit pipeline, snapshot-driven checkpointing
// (manual and scheduler-driven), durable bulk loads, and Open-time
// crash recovery.

// tableRecord converts a schema into its schema-log form, including
// declared secondary-index kinds (a trailing extension old logs lack).
func tableRecord(schema Schema, rows int) wal.TableRecord {
	rec := wal.TableRecord{Name: schema.Table, Rows: rows}
	for _, c := range schema.Columns {
		rec.Columns = append(rec.Columns, wal.ColumnDef{Name: c.Name, Type: uint8(c.Type), Index: uint8(c.Index)})
	}
	return rec
}

// schemaOf is tableRecord's inverse: the schema a schema-log table
// record declares. Recovery and a replica's schema apply share it.
func schemaOf(tr wal.TableRecord) Schema {
	schema := Schema{Table: tr.Name}
	for _, c := range tr.Columns {
		schema.Columns = append(schema.Columns, ColumnDef{Name: c.Name, Type: ColumnType(c.Type), Index: IndexKind(c.Index)})
	}
	return schema
}

// wrecIndexDDL converts an online CreateIndex/DropIndex into its
// schema-log form.
func wrecIndexDDL(tab, col string, kind IndexKind, drop bool) wal.IndexDDLRecord {
	return wal.IndexDDLRecord{Table: tab, Column: col, Kind: uint8(kind), Drop: drop}
}

// redoRecord converts a committed transaction's record into its WAL
// form. VARCHAR writes carry the decoded string so replay can re-seed
// the dictionary: a bare code would only be meaningful against the
// exact dictionary state of the crashed process. Row ops ride in the
// same record (the kind-3 layout), so one frame carries the whole
// transaction. It runs on the commit hot path under the shard lock, so
// the table list is locked once for the whole record, not per write.
func (db *DB) redoRecord(rec mvcc.CommitRecord) wal.CommitRecord {
	out := wal.CommitRecord{TS: rec.TS, Writes: make([]wal.RedoWrite, 0, len(rec.Writes))}
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, e := range rec.Writes {
		w := wal.RedoWrite{Table: e.Col.Table, Col: e.Col.Col, Row: e.Row, Val: e.New}
		if c := db.tabList[e.Col.Table].cols[e.Col.Col]; c.def.Type == Varchar {
			w.Str, w.HasStr = c.dict.Decode(e.New), true
		}
		out.Writes = append(out.Writes, w)
	}
	for _, op := range rec.Ops {
		out.Ops = append(out.Ops, wal.RowOp{Table: op.Table, Row: op.Row, Del: op.Del})
	}
	return out
}

// Checkpoint writes a consistent on-disk checkpoint and truncates the
// write-ahead log below its timestamp. It is the paper's snapshot-
// consumer pattern applied to durability: the checkpointer pins an
// OLAP snapshot generation (through whichever snapshot strategy the
// database runs) and streams the snapshotted column regions plus
// dictionaries to disk, so OLTP writers are never stalled — they only
// ever see the usual brief shard-lock hold of a first-touch column
// snapshot. Rows newer than the checkpoint timestamp may be captured;
// replay's newer-wins rule makes that harmless, because their WAL
// records survive truncation.
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return ErrNoDurability
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return ErrClosed
	}
	db.mu.RUnlock()

	start := time.Now()
	g, tabs, release := db.pinCheckpoint()
	defer release()
	err := db.wal.WriteCheckpoint(g.ts, len(tabs), func(w *wal.CheckpointWriter) error {
		return writeTableSections(g, tabs, w)
	})
	if err != nil {
		return err
	}
	// Reset the scheduler's growth baselines: thresholds measure WAL
	// growth since THIS checkpoint from now on. Written under ckptMu, so
	// a manual checkpoint also pushes the automatic one out.
	db.ckptBaseBytes.Store(db.wal.Bytes())
	db.ckptBaseRecords.Store(db.wal.Records())
	db.st.checkpoints.Add(1)
	elapsed := time.Since(start)
	db.tel.checkpoint.Observe(elapsed)
	db.tel.rec.Record(telemetry.EvCheckpoint, int64(g.ts), 0, elapsed.Nanoseconds())
	return nil
}

// pinCheckpoint pins the snapshot a checkpoint body captures — for a
// checkpoint file and a replica bootstrap alike — and lists the tables
// it covers; release undoes both pins.
//
// The generation is a fresh one, not the current one: a column snapshot
// cached in the current generation by an earlier OLAP pin could predate
// a bulk load, and checkpointing it would persist pre-load data while
// the WAL truncation reclaims the load's (timestamp-less) records. The
// pin takes the read side of the re-bootstrap gate (DB.olapGate): the
// generation must not span a replica's in-place re-bootstrap, which
// fast-forwards the captured arrays under it. The table list is
// captured only after the generation's timestamp is pinned: any table
// created from here on can only receive commit timestamps above it, so
// its rows are fully covered by the WAL records the truncation below
// g.ts retains (or, on a replica, by the live stream attached before
// the pin). Dropped slots are skipped — their drop record survives in
// the schema log and replay re-drops whatever state an older
// checkpoint would have carried.
func (db *DB) pinCheckpoint() (g *generation, tabs []*table, release func()) {
	db.olapGate.RLock()
	g = db.snaps.acquireFresh()
	return g, db.liveTables(), func() {
		db.snaps.release(g)
		db.olapGate.RUnlock()
	}
}

// liveTables returns the tables not dropped, in slot order.
func (db *DB) liveTables() []*table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	tabs := make([]*table, 0, len(db.tabList))
	for _, t := range db.tabList {
		if !t.dropped.Load() {
			tabs = append(tabs, t)
		}
	}
	return tabs
}

// writeTableSections writes one checkpoint section per table of tabs,
// captured at g: the only section encoder, behind both Checkpoint and
// a replica bootstrap.
func writeTableSections(g *generation, tabs []*table, w *wal.CheckpointWriter) error {
	for _, t := range tabs {
		// Capture every column and the visibility arrays before writing
		// anything: the table can grow chunk-wise while the body streams,
		// so the section's row count is the minimum captured capacity —
		// rows born above it carry commit timestamps past g.ts and replay
		// from the retained WAL records (or the replica's live stream).
		snaps := make([]*colSnap, len(t.cols))
		for i, c := range t.cols {
			cs, err := g.colSnap(c)
			if err != nil {
				return err
			}
			snaps[i] = cs
		}
		vs, err := g.visSnap(t)
		if err != nil {
			return err
		}
		rows := vs.rows()
		for _, cs := range snaps {
			rows = min(rows, cs.rows())
		}
		if err := w.BeginTable(t.idx, t.st.Schema().Table, rows, len(t.cols)); err != nil {
			return err
		}
		for _, cs := range snaps {
			if err := storage.WriteWords(w, rows, cs.data.GetU); err != nil {
				return err
			}
			if err := storage.WriteWords(w, rows, cs.wts.GetU); err != nil {
				return err
			}
		}
		if err := storage.WriteWords(w, rows, vs.data.GetU); err != nil {
			return err
		}
		if err := storage.WriteWords(w, rows, vs.wts.GetU); err != nil {
			return err
		}
		// The dictionary is read only now, after the last column capture:
		// being append-only it is a superset of every code the captured
		// words can hold, even with VARCHAR commits racing the capture.
		if err := w.FinishTable(t.st.Dict().Strings()); err != nil {
			return err
		}
	}
	return nil
}

// loadTableSections reads ntables checkpoint sections from r into the
// tables they address: the only section decoder, behind both recovery
// (the checkpoint file) and a replica bootstrap (the primary's stream).
// Sections address tables by schema-log slot, not name: after a drop
// and same-name re-creation both incarnations replayed from the schema
// log, and a pre-drop checkpoint's section must load into the dropped
// incarnation's slot (the pending drop record then clears it), never
// the new table's. Tables grow to the section's captured capacity
// first — a checkpoint taken after inserts covers more rows than the
// schema log's initial count. Column bodies then arrive as fixed-size
// word windows stored in place through page-wise bulk writes, so
// memory stays O(chunk) however large the columns are. On a replica
// the load is a fast-forward: the body is the primary's state at its
// timestamp, at or above anything the replica holds.
//
// It returns the maximum commit timestamp of any loaded row (write,
// birth or death stamps), which can exceed the body's own timestamp
// when the capture saw rows committed after it; the oracle must be
// seeded above it.
func (db *DB) loadTableSections(ntables int, r *wal.CheckpointReader) (uint64, error) {
	var maxStamp uint64
	for i := 0; i < ntables; i++ {
		slot, name, rows, cols, err := r.TableHeader()
		if err != nil {
			return 0, err
		}
		db.mu.RLock()
		n := len(db.tabList)
		var t *table
		if slot >= 0 && slot < n {
			t = db.tabList[slot]
		}
		db.mu.RUnlock()
		switch {
		case t == nil:
			return 0, fmt.Errorf("checkpointed table %q claims slot %d of %d", name, slot, n)
		case t.st.Schema().Table != name:
			return 0, fmt.Errorf("checkpointed table %q at slot %d, schema log says %q", name, slot, t.st.Schema().Table)
		case len(t.cols) != cols:
			return 0, fmt.Errorf("checkpointed table %q has %d columns, schema log says %d", name, cols, len(t.cols))
		case rows < 0 || rows > maxRecoveredRow:
			return 0, fmt.Errorf("checkpointed table %q claims %d rows", name, rows)
		}
		if err := db.growRecovered(t, rows-1); err != nil {
			return 0, err
		}
		stamp, err := db.fillSection(t, rows, r)
		if err != nil {
			return 0, err
		}
		maxStamp = max(maxStamp, stamp)
	}
	return maxStamp, nil
}

// fillSection streams one section's arrays and dictionary into t
// under every shard lock — uncontended during recovery, on a replica it
// keeps a snapshot capture from seeing a torn mix — and returns the
// newest commit timestamp among the loaded stamps.
func (db *DB) fillSection(t *table, rows int, r *wal.CheckpointReader) (uint64, error) {
	var maxStamp uint64
	stamped := func(e *storage.Extent) func(int, []uint64) {
		return func(start int, words []uint64) {
			for _, v := range words {
				if v != storage.NeverTS && v > maxStamp { // NeverTS: unborn
					maxStamp = v
				}
			}
			e.FillWindow(start, words)
		}
	}
	db.lockAllShards()
	defer db.unlockAllShards()
	for _, c := range t.cols {
		if err := storage.ReadWordsRegion(r, rows, c.data.FillWindow); err != nil {
			return 0, err
		}
		if err := storage.ReadWordsRegion(r, rows, stamped(c.wts)); err != nil {
			return 0, err
		}
	}
	for _, e := range []*storage.Extent{t.st.Birth(), t.st.Death()} {
		if err := storage.ReadWordsRegion(r, rows, stamped(e)); err != nil {
			return 0, err
		}
	}
	dict, err := r.TableDict()
	if err != nil {
		return 0, err
	}
	t.st.Dict().Load(dict)
	return maxStamp, nil
}

// autoCkptDue reports whether WAL growth since the last checkpoint has
// crossed a configured auto-checkpoint threshold. Reads only atomics:
// it runs on the commit path (to decide whether to kick the scheduler)
// and in the scheduler itself.
func (db *DB) autoCkptDue() bool {
	if db.autoCkptBytes > 0 && db.wal.Bytes()-db.ckptBaseBytes.Load() >= db.autoCkptBytes {
		return true
	}
	if db.autoCkptRecords > 0 && db.wal.Records()-db.ckptBaseRecords.Load() >= db.autoCkptRecords {
		return true
	}
	return false
}

// kickAutoCkpt wakes the checkpoint scheduler if a growth threshold is
// crossed. One buffered slot: checkpointing is idempotent, kicks
// coalesce. Called after WAL appends (batch leaders and bulk loads),
// outside any shard lock hold that matters — it is one atomic
// comparison plus a non-blocking send.
func (db *DB) kickAutoCkpt() {
	if db.ckptKick == nil || !db.autoCkptDue() {
		return
	}
	select {
	case db.ckptKick <- struct{}{}:
	default: // a kick is already pending
	}
}

// autoCheckpointer is the background checkpoint scheduler (started by
// Open when WithAutoCheckpoint / WithAutoCheckpointInterval configure a
// trigger): it checkpoints when kicked past a WAL-growth threshold, and
// — with an interval configured — whenever the timer finds new records
// appended since the last checkpoint. All runs go through Checkpoint()
// and its mutex, so scheduler, manual callers, and Close never overlap;
// Close waits for the scheduler to drain before closing the log.
func (db *DB) autoCheckpointer(interval time.Duration) {
	defer close(db.ckptDone)
	var tick <-chan time.Time
	if interval > 0 {
		t := time.NewTicker(interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-db.ckptQuit:
			return
		case <-db.ckptKick:
			if !db.autoCkptDue() {
				continue // a racing manual checkpoint already covered it
			}
		case <-tick:
			if db.wal.Records() == db.ckptBaseRecords.Load() {
				continue // nothing new since the last checkpoint
			}
		}
		switch err := db.Checkpoint(); {
		case err == nil:
			db.st.autoCheckpoints.Add(1)
		case errors.Is(err, ErrClosed), errors.Is(err, wal.ErrLogClosed):
			return // shutting down
		default:
			// Poisoned log or I/O failure: nothing to do here — commits
			// are already failing loudly, and retrying on the next
			// trigger is free.
		}
	}
}

// RecoveryReport summarizes what Open-time crash recovery did. All
// fields are zero for a database opened without WithDurability or onto
// an empty directory.
type RecoveryReport struct {
	// ReplayedTxns is the number of WAL commit records re-applied
	// (records fully covered by the checkpoint are not counted).
	ReplayedTxns uint64
	// ReplayedLoads is the number of bulk-load chunk records re-applied.
	ReplayedLoads uint64
	// TailBytes is the total number of torn-tail bytes cut off across
	// all replayed log files: bytes past the last intact frame of a
	// segment, the residue of a crash mid-append. A torn tail is
	// expected, not corruption — the commits it held never reported
	// durable.
	TailBytes uint64
	// RebuiltIndexes is the number of secondary indexes rebuilt from
	// the recovered arrays (index entries are never logged; existence
	// replays from the schema log, contents rebuild at Open).
	RebuiltIndexes int
}

// RecoveryReport reports what crash recovery did when this database
// was opened. The report is written once during Open, before the DB is
// shared, so it is safe to read at any time.
func (db *DB) RecoveryReport() RecoveryReport {
	r := RecoveryReport{
		ReplayedTxns:   db.recoveredTxns,
		ReplayedLoads:  db.recoveredLoads,
		RebuiltIndexes: db.recoveredIndexes,
	}
	if db.wal != nil {
		r.TailBytes = db.wal.TailBytes()
	}
	return r
}

// loadChunkRows bounds one bulk-load WAL record: large loads become a
// series of window records, so replay (and the torn-tail blast radius)
// stays O(chunk) however big the load is.
const loadChunkRows = 8192

// logLoad appends a bulk load's chunk records (one of vals/strs is
// set) to the column's shard WAL: one write per chunk, one fsync for
// the whole load. Called with ckptMu held — see loadColumn.
func (db *DB) logLoad(c *column, vals []int64, strs []string) error {
	n := len(vals)
	if strs != nil {
		n = len(strs)
	}
	recs := make([]wal.LoadRecord, 0, (n+loadChunkRows-1)/loadChunkRows)
	for start := 0; start < n; start += loadChunkRows {
		end := start + loadChunkRows
		if end > n {
			end = n
		}
		rec := wal.LoadRecord{Table: c.id.Table, Col: c.id.Col, Start: start}
		if strs != nil {
			rec.Strs, rec.HasStrs = strs[start:end], true
		} else {
			rec.Vals = vals[start:end]
		}
		recs = append(recs, rec)
	}
	return db.wal.AppendLoads(db.shardOf(c.id), recs)
}

// maxRecoveredRow bounds how far replay will grow a table for a
// record's row index: a CRC-valid record never legitimately references
// rows this far above anything the engine can allocate, so larger
// indexes are treated like unknown addresses (the record is skipped)
// instead of ballooning recovery memory. (1<<30, not 1<<31: the bound
// must stay an int on 32-bit platforms.)
const maxRecoveredRow = 1 << 30

// visKey / visOp buffer replayed row ops per (table, row): segments
// replay shard by shard in arbitrary cross-shard order, so births and
// deaths of one row are collected first and applied in timestamp order
// afterwards — making row-op replay as order-insensitive as the
// newer-wins rule makes writes.
type visKey struct{ table, row int }

type visOp struct {
	ts  uint64
	del bool
}

// recover rebuilds engine state from the durability directory: replay
// the schema log (recreating every table in original index order),
// load the newest checkpoint into the column and visibility arrays
// (growing tables to the checkpointed capacity), then re-apply WAL
// commit records. Replay is idempotent by commit timestamp — a write
// lands only if its record is newer than the row's current write
// timestamp, and row ops are buffered and applied in timestamp order
// per row — so record order across shard logs is irrelevant and
// checkpoint-covered records are naturally skipped. Finally the oracle
// is re-seeded from the newest durable commit timestamp and every
// table's row allocator (high-water mark + free list) is rebuilt from
// the recovered visibility arrays.
func (db *DB) recover() error {
	db.recovering = true
	defer func() { db.recovering = false }()

	// Table-DDL markers (drop/truncate) are collected in log order and
	// applied only after the checkpoint and WAL are replayed: each
	// marker's timestamp then decides exactly which recovered rows it
	// covers, making replay correct whether the surviving checkpoint
	// predates or postdates the DDL.
	type pendingDDL struct {
		slot int
		op   uint8
		ts   uint64
	}
	var ddl []pendingDDL
	if err := db.wal.ReplaySchemaDDL(func(tr wal.TableRecord) error {
		return db.CreateTable(schemaOf(tr), tr.Rows)
	}, func(ir wal.IndexDDLRecord) error {
		// Online index DDL, replayed in log order over the declared
		// state. Only existence is tracked here (empty placeholders);
		// contents are rebuilt below once the arrays are recovered.
		// Records that do not resolve against the durable schema prefix
		// are skipped like out-of-prefix commit records.
		t := db.tables[ir.Table]
		if t == nil {
			return nil
		}
		i := t.st.Schema().ColumnIndex(ir.Column)
		if i < 0 {
			return nil
		}
		if ir.Drop {
			t.cols[i].idx.Store(nil)
		} else if kind := IndexKind(ir.Kind); kind.Valid() {
			t.cols[i].idx.Store(index.New(kind, 0))
		}
		return nil
	}, func(dr wal.TableDDLRecord) error {
		t := db.tables[dr.Name]
		if t == nil {
			return nil // out-of-prefix, skipped like index DDL
		}
		ddl = append(ddl, pendingDDL{slot: t.idx, op: dr.Op, ts: dr.TS})
		if dr.Op == wal.TableDDLDrop {
			// Release the name now so a later re-creation record in the
			// log replays against a free name; the slot stays occupied.
			delete(db.tables, dr.Name)
		}
		return nil
	}); err != nil {
		return fmt.Errorf("ankerdb: recovery: schema log: %w", err)
	}

	var ckptMaxWTS uint64
	ckptTS, _, err := db.wal.LoadCheckpoint(func(_ uint64, ntables int, r *wal.CheckpointReader) (err error) {
		ckptMaxWTS, err = db.loadTableSections(ntables, r)
		return err
	})
	if err != nil {
		return fmt.Errorf("ankerdb: recovery: %w", err)
	}

	var replayed, loads uint64
	maxTS := ckptTS
	if ckptMaxWTS > maxTS {
		// The checkpoint may have captured rows committed after its
		// timestamp whose WAL records were then lost to a crash under
		// SyncNone. Seeding at the max captured write timestamp keeps
		// those rows' timestamps in the past, so re-issued commit
		// timestamps can never collide with a recovered row's.
		maxTS = ckptMaxWTS
	}
	visOps := map[visKey][]visOp{}
	var cols []*column
	var tabs []*table
	if err := db.wal.ReplayCommits(func(rec wal.LoadRecord) error {
		// Bulk-load chunks are the state at time zero (fillLoad): any
		// committed write, whether recovered from the checkpoint or
		// replayed, wins over a load. Chunks beyond the durable schema
		// prefix are skipped like commit records.
		c, ok := db.recoveredLoadColumn(rec)
		if !ok {
			return nil
		}
		c.fillLoad(rec)
		loads++
		return nil
	}, func(rec wal.CommitRecord) error {
		if rec.TS > maxTS {
			maxTS = rec.TS
		}
		if rec.TS <= ckptTS {
			return nil // fully covered by the checkpoint
		}
		// A record that references state beyond the durable schema
		// prefix (possible only under SyncNone, when OS writeback
		// persisted a segment page but not the schema log) is skipped
		// whole — like a torn tail. It must not fail recovery: that
		// would make the directory permanently unopenable over a policy
		// that only promises to lose recent commits.
		var ok bool
		var err error
		if cols, tabs, ok, err = db.resolveCommit(rec, cols[:0], tabs[:0]); !ok {
			return err
		}
		for i, w := range rec.Writes {
			c := cols[i]
			if !c.newerWrite(w.Row, rec.TS) {
				continue
			}
			val := w.Val
			if w.HasStr {
				val = c.dict.Encode(w.Str)
			}
			c.wts.SetU(w.Row, rec.TS)
			c.data.Set(w.Row, val)
		}
		for _, op := range rec.Ops {
			k := visKey{table: op.Table, row: op.Row}
			visOps[k] = append(visOps[k], visOp{ts: rec.TS, del: op.Del})
		}
		replayed++
		return nil
	}); err != nil {
		return fmt.Errorf("ankerdb: recovery: %w", err)
	}

	db.applyVisOps(visOps)
	// Re-apply table DDL in log order over the fully replayed arrays.
	// The oracle seed must clear every DDL stamp too: otherwise a
	// commit issued after recovery could land at or below a truncate's
	// timestamp and be killed by the NEXT recovery's replay of it.
	for _, d := range ddl {
		if d.ts > maxTS {
			maxTS = d.ts
		}
		t := db.tabList[d.slot]
		db.tableBarrier(t, d.op, d.ts)
		if d.op == wal.TableDDLDrop {
			db.freeDropped(t) // nothing can reach a table dropped before the crash
		}
	}
	db.recoveredIndexes = db.rebuildDerivedState()
	db.oracle.Seed(maxTS)
	db.recoveredTxns = replayed
	db.recoveredLoads = loads
	return nil
}

// applyVisOps replays the buffered row ops of every (table, row) in
// commit-timestamp order: each insert resets the death stamp and
// births the row at its timestamp, each delete kills it — so the final
// (birth, death) pair reflects the newest durable incarnation
// regardless of the order segments were streamed in. Ops at or below
// the newest stamp the checkpoint already recovered for the row are
// skipped — the checkpointed pair reflects their effect (or a newer
// one) — mirroring the newer-wins idempotence rule write replay
// applies per cell, so replaying a record any number of times (or one
// that survived truncation in a foreign shard series) never regresses
// recovered state.
func (db *DB) applyVisOps(visOps map[visKey][]visOp) {
	for k, ops := range visOps {
		sort.Slice(ops, func(i, j int) bool { return ops[i].ts < ops[j].ts })
		t := db.tabList[k.table]
		birth, death := t.st.Birth(), t.st.Death()
		floor := t.rowOpFloor(k.row)
		for _, op := range ops {
			if op.ts <= floor {
				continue
			}
			if op.del {
				death.SetU(k.row, op.ts)
			} else {
				death.SetU(k.row, 0)
				birth.SetU(k.row, op.ts)
			}
		}
	}
}

// newerWrite reports whether a write stamped ts is newer than what row
// of c already holds: replay's newer-wins rule, which makes a record
// re-applied (or applied after a newer one) a no-op per cell.
func (c *column) newerWrite(row int, ts uint64) bool {
	return ts > c.wts.GetU(row)
}

// rowOpFloor returns the newest stamp row's visibility pair already
// reflects: its death stamp, or its birth when later (a NeverTS birth
// marks an unborn or reclaimed slot and does not count). Replay skips
// row ops at or below it — the pair reflects their effect, or a newer
// one's.
func (t *table) rowOpFloor(row int) uint64 {
	floor := t.st.Death().GetU(row)
	if b := t.st.Birth().GetU(row); b != storage.NeverTS && b > floor {
		floor = b
	}
	return floor
}

// fillLoad writes a bulk-load chunk into c, only on rows no commit has
// stamped (write timestamp zero), widening their zones. Loads are the
// state at time zero, so a fill is idempotent and insensitive to
// ordering against commit records: any committed write wins. Recovery
// and a replica's live apply share it.
func (c *column) fillLoad(rec wal.LoadRecord) {
	n := len(rec.Vals)
	if rec.HasStrs {
		n = len(rec.Strs)
	}
	for i := range n {
		row := rec.Start + i
		if c.wts.GetU(row) != 0 {
			continue
		}
		var v int64
		if rec.HasStrs {
			v = c.dict.Encode(rec.Strs[i])
		} else {
			v = rec.Vals[i]
		}
		c.data.Set(row, v)
		c.widen(row, v)
	}
}

// rebuildDerivedState recomputes, under every shard lock, the state
// the arrays alone determine after a bulk fill — recovery's replay and
// a replica's bootstrap: row allocators and visibility-log bases, then
// zone maps, then secondary-index contents. Fills write straight into
// the arrays without maintaining any of it. The rebuild is exact at
// floor 0: version chains are empty (recovery) or unreachable (a
// bootstrap drains every pinned reader first), so nothing is reclaimed
// that the arrays don't already show, and indexes built from the
// filled arrays match scans at every timestamp (index_db.go documents
// the rebuild-vs-log trade). It returns the number of indexes rebuilt.
func (db *DB) rebuildDerivedState() int {
	db.lockAllShards()
	defer db.unlockAllShards()
	tabs := db.liveTables()
	rebuildRowState(tabs)
	indexes := 0
	for _, t := range tabs {
		for _, c := range t.cols {
			c.recomputeZones(0)
			if old := c.idx.Load(); old != nil {
				c.idx.Store(buildColumnIndex(c, old.Kind(), 0))
				indexes++
			}
		}
	}
	return indexes
}

// rebuildRowState recomputes each table's row allocator from its
// visibility arrays, sets visMutated, and collapses the visibility
// history into the log's base: the arrays already reflect every row op,
// and every reachable read timestamp sits above them.
func rebuildRowState(tabs []*table) {
	for _, t := range tabs {
		live, mutated := t.rebuildAllocator()
		t.visMutated.Store(mutated)
		t.visLogReset(live - int64(t.st.InitialRows()))
	}
}

// rebuildAllocator recomputes t's row allocator from its visibility
// arrays: the high-water mark covers every slot ever used, and slots
// whose reclaimed state a checkpoint persisted (birth NeverTS with a
// death stamp) return to the free list. It returns the live-row count
// and whether any row was ever transactionally born or killed.
func (t *table) rebuildAllocator() (live int64, mutated bool) {
	birth, death := t.st.Birth(), t.st.Death()
	next := t.st.InitialRows()
	var free []int
	mutated = t.truncated
	for row, capacity := 0, t.st.Capacity(); row < capacity; row++ {
		b, d := birth.GetU(row), death.GetU(row)
		switch {
		case b != storage.NeverTS:
			next = max(next, row+1)
			if d == 0 {
				live++
			}
			if b != 0 || d != 0 {
				mutated = true
			}
		case d != 0:
			// Reclaimed by a Vacuum and persisted by a checkpoint: the
			// slot is free for reuse.
			free = append(free, row)
			next = max(next, row+1)
			mutated = true
		}
	}
	if next > t.st.InitialRows() {
		mutated = true
	}
	t.amu.Lock()
	t.next, t.free = next, free
	t.amu.Unlock()
	return live, mutated
}

// growRecovered grows t (and its per-chunk scan metadata) to cover
// row, chunk-wise. Recovery is single-threaded, but the allocator
// mutex also orders the metadata growth against nothing for free.
func (db *DB) growRecovered(t *table, row int) error {
	if row < t.st.Capacity() {
		return nil
	}
	t.amu.Lock()
	defer t.amu.Unlock()
	if err := t.st.EnsureCapacity(row + 1); err != nil {
		return err
	}
	t.growMetas()
	return nil
}

// resolveCommit resolves every address of a commit record before
// anything applies — each write's column and each row op's table —
// against the applied schema, appending to cols and tabs, and grows
// the tables chunk-wise to cover the rows touched (rows above the
// capacity are not errors: inserts put them there). ok is false when
// an address lies beyond the schema prefix or past maxRecoveredRow:
// the caller skips the record whole, keeping per-transaction
// atomicity. Recovery and a replica's live apply share it.
func (db *DB) resolveCommit(rec wal.CommitRecord, cols []*column, tabs []*table) ([]*column, []*table, bool, error) {
	db.mu.RLock()
	table := func(tab, row int) *table {
		if tab < 0 || tab >= len(db.tabList) || row < 0 || row >= maxRecoveredRow {
			return nil
		}
		return db.tabList[tab]
	}
	for _, w := range rec.Writes {
		t := table(w.Table, w.Row)
		if t == nil || w.Col < 0 || w.Col >= len(t.cols) {
			db.mu.RUnlock()
			return cols, tabs, false, nil
		}
		cols = append(cols, t.cols[w.Col])
	}
	for _, op := range rec.Ops {
		t := table(op.Table, op.Row)
		if t == nil {
			db.mu.RUnlock()
			return cols, tabs, false, nil
		}
		tabs = append(tabs, t)
	}
	db.mu.RUnlock()
	for i, w := range rec.Writes {
		if err := db.growRecovered(cols[i].tab, w.Row); err != nil {
			return cols, tabs, false, err
		}
	}
	for i, op := range rec.Ops {
		if err := db.growRecovered(tabs[i], op.Row); err != nil {
			return cols, tabs, false, err
		}
	}
	return cols, tabs, true, nil
}

// recoveredLoadColumn resolves a bulk-load chunk's column and validates
// its window and value type against the applied schema; ok is false
// when the schema prefix does not cover it. Recovery and a replica's
// live apply share it.
func (db *DB) recoveredLoadColumn(r wal.LoadRecord) (*column, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if r.Table < 0 || r.Table >= len(db.tabList) {
		return nil, false
	}
	t := db.tabList[r.Table]
	if r.Col < 0 || r.Col >= len(t.cols) {
		return nil, false
	}
	c := t.cols[r.Col]
	n := len(r.Vals)
	if r.HasStrs {
		n = len(r.Strs)
	}
	if r.Start < 0 || n > c.data.Rows()-r.Start {
		return nil, false
	}
	if r.HasStrs != (c.def.Type == Varchar) {
		return nil, false
	}
	return c, true
}
