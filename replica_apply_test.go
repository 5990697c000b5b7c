package ankerdb

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"

	"ankerdb/internal/wal"
)

// TestReplicaIndexBuildFloorAboveWatermark: a replica applies commit
// records before the heartbeat that publishes them (and heartbeats are
// best-effort), so its applied state can sit above its completed
// watermark. An index the replica builds then — online index DDL, or
// the rebuild after a streamed bulk load — holds values a reader
// pinned at the watermark cannot see yet; its build floor must cover
// the applied records so such a reader falls back to the scan path
// instead of probing them.
func TestReplicaIndexBuildFloorAboveWatermark(t *testing.T) {
	db, err := Open(WithCostModel(ZeroCost), WithInitialSchema(NewSchema("t").Int64("v").Build(), 64))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	vals := make([]int64, 64)
	for i := range vals {
		vals[i] = int64(i)
	}
	if err := db.Load("t", "v", vals); err != nil {
		t.Fatal(err)
	}
	r := &replicaState{db: db}
	wm := db.oracle.Completed()
	apply := func(ts uint64, row int, v int64) {
		t.Helper()
		rec := wal.CommitRecord{TS: ts, Writes: []wal.RedoWrite{{Table: 0, Col: 0, Row: row, Val: v}}}
		if ok, err := r.applyCommit(rec); !ok || err != nil {
			t.Fatalf("apply at %d: applied=%v err=%v", ts, ok, err)
		}
	}
	// eq runs Eq(v, want) in an OLAP reader pinned at the watermark,
	// through the index and through a forced scan.
	eq := func(want int64) (viaIndex, viaScan string) {
		t.Helper()
		tx, err := db.Begin(OLAP)
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Abort()
		if ts := tx.SnapshotTS(); ts != wm {
			t.Fatalf("reader pinned at %d, want the watermark %d", ts, wm)
		}
		run := func(q *Query) string {
			res, err := q.Run()
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(res.Ints(0))
		}
		return run(tx.Query("t").Where(Eq("v", want)).Select(RowID)),
			run(tx.Query("t").Where(Eq("v", want)).Select(RowID).WithoutPruning())
	}

	// Online index DDL above the watermark.
	apply(wm+5, 7, 42)
	r.applyIndexDDL(wal.IndexDDLRecord{Table: "t", Column: "v", Kind: uint8(Hash)})
	if idx, scan := eq(7); idx != "[7]" || scan != "[7]" {
		t.Fatalf("after index DDL: Eq(v,7) index %s, scan %s; want [7] both", idx, scan)
	}

	// The rebuild after a streamed bulk load, above the watermark. The
	// chunk leaves rows 7 and 9 alone: commits stamped them.
	apply(wm+10, 9, 99)
	r.applyLoad(wal.LoadRecord{Table: 0, Col: 0, Start: 0, Vals: []int64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}})
	if idx, scan := eq(9); idx != "[9]" || scan != "[9]" {
		t.Fatalf("after load reindex: Eq(v,9) index %s, scan %s; want [9] both", idx, scan)
	}
}

// readerView renders everything a reader sees of table t — each
// visible row's values, index lookups on both indexed columns, and the
// visibility-log COUNT — as one comparable string.
func readerView(t *testing.T, tx *Txn) string {
	t.Helper()
	var b strings.Builder
	res, err := tx.Query("t").Select(RowID).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Ints(0) {
		k, err1 := tx.Get("t", "k", int(row))
		v, err2 := tx.Get("t", "v", int(row))
		s, err3 := tx.GetString("t", "s", int(row))
		if err := errors.Join(err1, err2, err3); err != nil {
			t.Fatalf("row %d: %v", row, err)
		}
		fmt.Fprintf(&b, "%d:%d/%d/%s ", row, k, v, s)
	}
	for k := int64(0); k < 8; k++ {
		rows, err := tx.Lookup("t", "k", k)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "k=%d%v ", k, rows)
	}
	for lo := int64(0); lo < 100; lo += 25 {
		rows, err := tx.Filter("t", "v", lo, lo+9)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "v[%d]%v ", lo, rows)
	}
	n, err := tx.Aggregate("t", "k", Count)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "count=%d", n)
	return b.String()
}

// TestReplicaApplyIdempotent replays a seeded primary's redo records —
// updates, VARCHAR writes, inserts, deletes and re-inserts into slots
// Vacuum reclaimed, over a hash and an ordered index — into a fresh
// database through the replica's applyCommit, pinning OLAP readers
// along the way, then replays every record again. Every duplicate must
// report nothing applied and change nothing any reader can observe,
// and the final state must equal the primary's.
func TestReplicaApplyIdempotent(t *testing.T) {
	schema := NewSchema("t").Int64("k").Indexed(Hash).Int64("v").Indexed(Ordered).Varchar("s").Build()
	const initial = 16
	p, err := Open(WithCostModel(ZeroCost), WithDurability(t.TempDir()), WithSyncPolicy(SyncNone),
		WithInitialSchema(schema, initial))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var mu sync.Mutex
	var recs []wal.CommitRecord
	p.wal.OnAppend = func(_ int, rs []wal.CommitRecord) {
		mu.Lock()
		recs = append(recs, rs...)
		mu.Unlock()
	}

	// The first record names every initial row's string: an unset
	// VARCHAR word is dictionary code 0, whose string depends on each
	// database's encoding order.
	seed, err := p.Begin(OLTP)
	if err != nil {
		t.Fatal(err)
	}
	live := make([]int, initial)
	for i := range live {
		live[i] = i
		if err := seed.SetString("t", "s", i, "init"); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(14, 1))
	for step := 0; step < 400; step++ {
		tx, err := p.Begin(OLTP)
		if err != nil {
			t.Fatal(err)
		}
		touched := map[int]bool{}
		pick := func() (int, bool) {
			row := live[rng.IntN(len(live))]
			if touched[row] {
				return 0, false
			}
			touched[row] = true
			return row, true
		}
		var inserted []int
		deleted := map[int]bool{}
		for op := 0; op < 1+rng.IntN(3); op++ {
			switch x := rng.IntN(10); {
			case x < 4:
				if row, ok := pick(); ok {
					err = errors.Join(tx.Set("t", "k", row, rng.Int64N(8)), tx.Set("t", "v", row, rng.Int64N(100)))
				}
			case x < 6:
				if row, ok := pick(); ok {
					err = tx.SetString("t", "s", row, fmt.Sprintf("s%d", rng.IntN(6)))
				}
			case x < 8:
				var row int
				row, err = tx.Insert("t", map[string]any{"k": rng.Int64N(8), "v": rng.Int64N(100), "s": "ins"})
				inserted = append(inserted, row)
			default:
				if len(live) > 4 {
					if row, ok := pick(); ok {
						err = tx.Delete("t", row)
						deleted[row] = true
					}
				}
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("step %d commit: %v", step, err)
		}
		live = slices.DeleteFunc(live, func(row int) bool { return deleted[row] })
		live = append(live, inserted...)
		if step%40 == 39 {
			// Rotate the manager's pinned generation past the deaths, then
			// reclaim: later inserts reuse the freed slots.
			r, _ := p.Begin(OLAP)
			_ = r.Commit()
			p.Vacuum()
		}
	}
	if p.Stats().RowsReclaimed == 0 {
		t.Fatal("workload reclaimed no rows")
	}
	died := map[int]bool{}
	reborn := 0
	for _, rec := range recs {
		for _, op := range rec.Ops {
			if op.Del {
				died[op.Row] = true
			} else if died[op.Row] {
				reborn++
			}
		}
	}
	if reborn == 0 {
		t.Fatal("workload re-inserted into no reclaimed slot")
	}

	replica, err := Open(WithCostModel(ZeroCost), WithInitialSchema(schema, initial))
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	r := &replicaState{db: replica}
	var pins []*Txn
	for i, rec := range recs {
		if ok, err := r.applyCommit(rec); !ok || err != nil {
			t.Fatalf("record %d (ts %d): applied=%v err=%v", i, rec.TS, ok, err)
		}
		replica.oracle.ObserveCommitted(rec.TS) // the heartbeat
		if i%37 == 0 {
			tx, err := replica.Begin(OLAP)
			if err != nil {
				t.Fatal(err)
			}
			readerView(t, tx) // capture the snapshots the view reads
			pins = append(pins, tx)
		}
	}
	seen := make([]string, len(pins))
	for i, tx := range pins {
		seen[i] = readerView(t, tx)
	}
	before := replica.Stats()
	for i, rec := range recs {
		if ok, err := r.applyCommit(rec); ok || err != nil {
			t.Fatalf("duplicate record %d (ts %d): applied=%v err=%v", i, rec.TS, ok, err)
		}
	}
	after := replica.Stats()
	for _, c := range []struct {
		name     string
		was, now int64
	}{
		{"VersionNodes", before.VersionNodes, after.VersionNodes},
		{"IndexEntriesRaw", before.IndexEntriesRaw, after.IndexEntriesRaw},
		{"RowInserts", int64(before.RowInserts), int64(after.RowInserts)},
		{"RowDeletes", int64(before.RowDeletes), int64(after.RowDeletes)},
		{"TableCapacity", int64(before.TableCapacity), int64(after.TableCapacity)},
	} {
		if c.was != c.now {
			t.Errorf("duplicates moved Stats.%s: %d -> %d", c.name, c.was, c.now)
		}
	}
	for i, tx := range pins {
		if got := readerView(t, tx); got != seen[i] {
			t.Errorf("reader %d (ts %d) changed under duplicates:\n was %s\n now %s", i, tx.SnapshotTS(), seen[i], got)
		}
		_ = tx.Commit()
	}

	final := func(db *DB) string {
		tx, err := db.Begin(OLAP)
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Abort()
		return readerView(t, tx)
	}
	if want, got := final(p), final(replica); got != want {
		t.Fatalf("replica differs from the primary:\n primary %s\n replica %s", want, got)
	}
}
