package ankerdb

import (
	"fmt"

	"ankerdb/internal/index"
	"ankerdb/internal/storage"
	"ankerdb/internal/telemetry"
)

// Secondary-index DDL and (re)build paths. The durability model is
// rebuild-at-recovery: index *entries* are never WAL-logged — commits
// pay zero extra log bytes for maintenance — and recovery instead
// rebuilds every index deterministically from the recovered column and
// visibility arrays after replay (durability.go). What is persisted is
// the *existence* of an index: schema-declared indexes ride the table
// record, online CreateIndex/DropIndex append index-DDL records to the
// same never-truncated schema log. The trade against logging entries:
// recovery pays one O(rows) pass per indexed column, which streams the
// same arrays rebuildRowState already touched, in exchange for a
// commit path whose WAL traffic is completely unchanged.

// buildColumnIndex builds an index over c's current contents. Each
// entry copies its row's actual birth/death extent, so a probe at any
// servable timestamp answers row visibility exactly like the
// visibility arrays would. Rows already dead at or below minTS are
// skipped — no servable reader can see them.
//
// The caller must exclude concurrent installs into c (all shard locks
// held, or single-threaded recovery/creation). Rows merely *reserved*
// by in-flight inserts are still unborn (birth NeverTS) and skipped;
// their birth install happens after the build publishes, under the
// shard lock, and maintains the index like any other commit.
func buildColumnIndex(c *column, kind IndexKind, minTS uint64) *index.Index {
	ix := index.New(kind, minTS)
	birth, death := c.tab.st.Birth(), c.tab.st.Death()
	capacity := c.tab.st.Capacity()
	for row := 0; row < capacity; row++ {
		b := birth.GetU(row)
		if b == storage.NeverTS {
			continue // unborn, reserved, or reclaimed
		}
		d := death.GetU(row)
		if d != 0 && d <= minTS {
			continue // dead below every servable timestamp
		}
		ix.Insert(c.data.Get(row), row, b, d)
	}
	return ix
}

// reindexColumn rebuilds c's index (if any) from scratch after a bulk
// load replaced the column's contents, online (publishIndex):
// generations pinned before the load fall back to the scan path, which
// reads the same post-load arrays, so the two paths stay in agreement.
func (db *DB) reindexColumn(c *column, above uint64) {
	if c.idx.Load() == nil {
		return
	}
	db.lockAllShards()
	if old := c.idx.Load(); old != nil {
		db.publishIndex(c, old.Kind(), above)
	}
	db.unlockAllShards()
}

// CreateIndex builds a secondary index of the given kind over an
// existing column, online: the build runs under every shard commit
// lock (commit installation is quiescent, so the captured state is
// exactly the completed prefix), publishes the index, and from then on
// commits maintain it inside their critical section. Transactions
// running during the build are unaffected — readers at timestamps
// below the build floor simply keep scanning.
func (db *DB) CreateIndex(tab, col string, kind IndexKind) error {
	if err := db.replicaWriteGuard(); err != nil {
		return err
	}
	if !kind.Valid() {
		return fmt.Errorf("%w: %d", ErrIndexKind, kind)
	}
	c, err := db.lookup(tab, col)
	if err != nil {
		return err
	}
	if err := db.createIndex(c, kind, 0); err != nil {
		return err
	}
	if db.wal != nil && !db.recovering {
		return db.wal.AppendIndexDDL(wrecIndexDDL(tab, col, kind, false))
	}
	return nil
}

// createIndex is CreateIndex's build, shared with a replica's index
// DDL: under every shard commit lock, it fails if c is already indexed
// and otherwise publishes a fresh index (publishIndex).
func (db *DB) createIndex(c *column, kind IndexKind, above uint64) error {
	db.lockAllShards()
	defer db.unlockAllShards()
	if c.idx.Load() != nil {
		return fmt.Errorf("%w: %s.%s", ErrIndexExists, c.tab.st.Schema().Table, c.def.Name)
	}
	floor := db.publishIndex(c, kind, above)
	db.tel.rec.RecordNote(telemetry.EvIndexDDL, 1, int64(floor), 0,
		fmt.Sprintf("%s.%s %s", c.tab.st.Schema().Table, c.def.Name, kind))
	return nil
}

// publishIndex builds c's index of the given kind over its current
// contents and publishes it, returning the build floor. The caller
// holds every shard commit lock, so the completed watermark equals the
// newest assigned timestamp: every commit at or below it is fully
// installed, every later one runs after the index publishes. Values
// displaced before the build live only in version chains the build
// cannot see — hence the floor, below which probes fall back to the
// scan path. above raises it: a replica has applied commit records
// beyond its watermark (heartbeats advance it, and they are
// best-effort), and a reader pinned at the watermark must not probe
// values it cannot see yet.
func (db *DB) publishIndex(c *column, kind IndexKind, above uint64) uint64 {
	floor := max(db.oracle.Completed(), above)
	c.idx.Store(buildColumnIndex(c, kind, floor))
	return floor
}

// DropIndex removes the column's secondary index. In-flight probes
// holding the old structure finish against it — its entries stay
// valid — and later lookups fall back to the scan path.
func (db *DB) DropIndex(tab, col string) error {
	if err := db.replicaWriteGuard(); err != nil {
		return err
	}
	c, err := db.lookup(tab, col)
	if err != nil {
		return err
	}
	if old := c.idx.Swap(nil); old == nil {
		return fmt.Errorf("%w: %s.%s", ErrNoIndex, tab, col)
	}
	db.tel.rec.RecordNote(telemetry.EvIndexDDL, 0, 0, 0, fmt.Sprintf("%s.%s", tab, col))
	if db.wal != nil && !db.recovering {
		return db.wal.AppendIndexDDL(wrecIndexDDL(tab, col, NoIndex, true))
	}
	return nil
}
