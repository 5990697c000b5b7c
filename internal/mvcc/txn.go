package mvcc

import "sync"

// Class is the paper's transaction classification: short modifying OLTP
// transactions versus long read-only OLAP transactions (Section 2.2).
type Class uint8

// Transaction classes.
const (
	OLTP Class = iota
	OLAP
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == OLAP {
		return "OLAP"
	}
	return "OLTP"
}

// ColumnID identifies a column engine-wide.
type ColumnID struct {
	Table int
	Col   int
}

// VisCol is the pseudo column index of a table's row-visibility
// (birth/death) arrays. Inserts and deletes route through the commit
// shard this pseudo column hashes to — the table's "owning" shard —
// which serialises all visibility mutations of a table on one lock, so
// their WAL appends happen in timestamp order.
const VisCol = -1

// VisColumnID returns the visibility pseudo-column of table.
func VisColumnID(table int) ColumnID { return ColumnID{Table: table, Col: VisCol} }

// RowOp is one staged row birth or death: an Insert (Del false) stamps
// the row's birth timestamp at commit, a Delete (Del true) its death
// timestamp.
type RowOp struct {
	Table int
	Row   int
	Del   bool
}

// WriteEntry is one materialised write, recorded for validation.
type WriteEntry struct {
	Col      ColumnID
	Row      int
	Old, New int64
}

// Predicate is a value range a transaction filtered on, the unit of
// precision locking (Section 2.1): at commit time, writes of concurrent
// transactions are intersected with these ranges.
type Predicate struct {
	Col    ColumnID
	Lo, Hi int64
}

// Contains reports whether v lies in the predicate range.
func (p Predicate) Contains(v int64) bool { return v >= p.Lo && v <= p.Hi }

// TxnState is the transaction-local MVCC state: staged writes (local
// until commit, which makes aborts free — Section 2.2.1 step 3), the
// read set for validation, and the begin timestamp.
type TxnState struct {
	ID    uint64
	Begin uint64
	Class Class

	writes     map[ColumnID]map[int]int64
	writeOrder []writeRef
	pointReads map[ColumnID]map[int]struct{}
	preds      []Predicate

	rowOps   []RowOp
	inserted map[int]map[int]struct{} // table -> staged-insert rows
	deleted  map[int]map[int]struct{} // table -> staged-delete rows
}

type writeRef struct {
	col ColumnID
	row int
}

// NewTxnState returns transaction state for the given identity.
func NewTxnState(id, begin uint64, class Class) *TxnState {
	return &TxnState{ID: id, Begin: begin, Class: class}
}

// StageWrite stores the write locally. Repeated writes to the same
// (column, row) overwrite in place; order of first writes is preserved
// for deterministic materialisation.
func (t *TxnState) StageWrite(col ColumnID, row int, val int64) {
	if t.writes == nil {
		t.writes = map[ColumnID]map[int]int64{}
	}
	m := t.writes[col]
	if m == nil {
		m = map[int]int64{}
		t.writes[col] = m
	}
	if _, seen := m[row]; !seen {
		t.writeOrder = append(t.writeOrder, writeRef{col, row})
	}
	m[row] = val
}

// StagedValue returns the transaction's own uncommitted write to
// (col, row), if any — reads must see the transaction's own writes.
func (t *TxnState) StagedValue(col ColumnID, row int) (int64, bool) {
	m := t.writes[col]
	if m == nil {
		return 0, false
	}
	v, ok := m[row]
	return v, ok
}

// HasWrites reports whether any write was staged.
func (t *TxnState) HasWrites() bool { return len(t.writeOrder) > 0 }

// NumWrites returns the number of distinct (column, row) writes.
func (t *TxnState) NumWrites() int { return len(t.writeOrder) }

// EachWrite visits the staged writes in first-write order.
func (t *TxnState) EachWrite(fn func(col ColumnID, row int, val int64)) {
	for _, r := range t.writeOrder {
		fn(r.col, r.row, t.writes[r.col][r.row])
	}
}

// NotePointRead records that the transaction's result depends on the
// current version of (col, row).
func (t *TxnState) NotePointRead(col ColumnID, row int) {
	if t.pointReads == nil {
		t.pointReads = map[ColumnID]map[int]struct{}{}
	}
	m := t.pointReads[col]
	if m == nil {
		m = map[int]struct{}{}
		t.pointReads[col] = m
	}
	m[row] = struct{}{}
}

// NotePredicate records a filtered range for precision locking.
func (t *TxnState) NotePredicate(p Predicate) { t.preds = append(t.preds, p) }

// StageInsert records that the transaction births row of table at
// commit. The caller has exclusively reserved the row slot, so no
// point read is needed: concurrent transactions cannot address it.
func (t *TxnState) StageInsert(table, row int) {
	t.rowOps = append(t.rowOps, RowOp{Table: table, Row: row})
	if t.inserted == nil {
		t.inserted = map[int]map[int]struct{}{}
	}
	m := t.inserted[table]
	if m == nil {
		m = map[int]struct{}{}
		t.inserted[table] = m
	}
	m[row] = struct{}{}
}

// StageDelete records that the transaction kills row of table at
// commit. The deletion reads the row's liveness, so a point read on the
// visibility pseudo column is recorded: a concurrent commit that births
// or kills the same row invalidates this transaction.
func (t *TxnState) StageDelete(table, row int) {
	t.rowOps = append(t.rowOps, RowOp{Table: table, Row: row, Del: true})
	t.NotePointRead(VisColumnID(table), row)
	if t.deleted == nil {
		t.deleted = map[int]map[int]struct{}{}
	}
	m := t.deleted[table]
	if m == nil {
		m = map[int]struct{}{}
		t.deleted[table] = m
	}
	m[row] = struct{}{}
}

// RowInserted reports whether the transaction staged an insert of
// (table, row).
func (t *TxnState) RowInserted(table, row int) bool {
	_, ok := t.inserted[table][row]
	return ok
}

// RowDeleted reports whether the transaction staged a delete of
// (table, row).
func (t *TxnState) RowDeleted(table, row int) bool {
	_, ok := t.deleted[table][row]
	return ok
}

// HasRowOps reports whether any insert or delete was staged.
func (t *TxnState) HasRowOps() bool { return len(t.rowOps) > 0 }

// HasRowOpsFor reports whether any insert or delete was staged against
// table — the facade's read paths use it to keep the unmutated-table
// fast path for tables this transaction never touched.
func (t *TxnState) HasRowOpsFor(table int) bool {
	return len(t.inserted[table]) > 0 || len(t.deleted[table]) > 0
}

// EachRowOp visits the staged row operations in stage order.
func (t *TxnState) EachRowOp(fn func(op RowOp)) {
	for _, op := range t.rowOps {
		fn(op)
	}
}

// HasReads reports whether the transaction recorded any point read or
// predicate. A transaction with an empty read set cannot be
// invalidated by concurrent commits — its blind writes serialize at
// its commit timestamp — so the commit pipeline skips validation
// entirely for it.
func (t *TxnState) HasReads() bool {
	return len(t.pointReads) > 0 || len(t.preds) > 0
}

// EachColumn visits every distinct column in the transaction's
// footprint — staged writes, point reads, and predicate ranges — once
// each. The commit pipeline uses it to route the transaction to the
// commit shards it must serialize with.
func (t *TxnState) EachColumn(fn func(col ColumnID)) {
	// Footprints are a handful of columns; a linear scan over a small
	// slice beats a map allocation on the per-commit path.
	seen := make([]ColumnID, 0, 8)
	visit := func(id ColumnID) {
		for _, s := range seen {
			if s == id {
				return
			}
		}
		seen = append(seen, id)
		fn(id)
	}
	for id := range t.writes {
		visit(id)
	}
	for id := range t.pointReads {
		visit(id)
	}
	for _, p := range t.preds {
		visit(p.Col)
	}
	for _, op := range t.rowOps {
		visit(VisColumnID(op.Table))
	}
}

// ReadSetSize returns the number of recorded point reads and predicates.
func (t *TxnState) ReadSetSize() (points, preds int) {
	for _, m := range t.pointReads {
		points += len(m)
	}
	return points, len(t.preds)
}

// conflictsWith reports whether the committed write e invalidates this
// transaction's reads: it hit a row the transaction point-read, or its
// old or new value falls into a predicate range on the same column.
func (t *TxnState) conflictsWith(e WriteEntry) bool {
	if m := t.pointReads[e.Col]; m != nil {
		if _, hit := m[e.Row]; hit {
			return true
		}
	}
	for _, p := range t.preds {
		if p.Col == e.Col && (p.Contains(e.Old) || p.Contains(e.New)) {
			return true
		}
	}
	return false
}

// ActiveSet tracks running transactions and their begin timestamps, the
// input to both garbage collection and recently-committed pruning.
type ActiveSet struct {
	mu sync.Mutex
	m  map[uint64]uint64 // txn ID -> begin timestamp
}

// NewActiveSet returns an empty set.
func NewActiveSet() *ActiveSet { return &ActiveSet{m: map[uint64]uint64{}} }

// Register adds a running transaction.
func (a *ActiveSet) Register(id, begin uint64) {
	a.mu.Lock()
	a.m[id] = begin
	a.mu.Unlock()
}

// Unregister removes a finished transaction.
func (a *ActiveSet) Unregister(id uint64) {
	a.mu.Lock()
	delete(a.m, id)
	a.mu.Unlock()
}

// MinBegin returns the smallest begin timestamp of any running
// transaction, or ifEmpty when none runs.
func (a *ActiveSet) MinBegin(ifEmpty uint64) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	minTS := ifEmpty
	first := true
	for _, b := range a.m {
		if first || b < minTS {
			minTS = b
			first = false
		}
	}
	return minTS
}

// Len returns the number of running transactions.
func (a *ActiveSet) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.m)
}
