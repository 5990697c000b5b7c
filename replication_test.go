package ankerdb

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// waitReplicaTS polls until db's completed watermark reaches ts.
func waitReplicaTS(t *testing.T, db *DB, ts uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for db.oracle.Completed() < ts {
		if time.Now().After(deadline) {
			st := db.Stats()
			t.Fatalf("replica stuck: completed %d, applied %d, source %d, want %d",
				st.CompletedCommitTS, st.ReplicaAppliedTS, st.ReplicaSourceTS, ts)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func openPrimary(t *testing.T, opts ...Option) *DB {
	t.Helper()
	base := []Option{
		WithCostModel(ZeroCost),
		WithDurability(t.TempDir()),
		WithSyncPolicy(SyncNone),
		WithServeAddr("127.0.0.1:0"),
	}
	db, err := Open(append(base, opts...)...)
	if err != nil {
		t.Fatalf("open primary: %v", err)
	}
	t.Cleanup(func() { _ = db.Close() })
	return db
}

func openReplicaOf(t *testing.T, addr string, opts ...Option) *DB {
	t.Helper()
	base := []Option{WithCostModel(ZeroCost), WithReplicaOf(addr)}
	db, err := Open(append(base, opts...)...)
	if err != nil {
		t.Fatalf("open replica: %v", err)
	}
	t.Cleanup(func() { _ = db.Close() })
	return db
}

func commitWrite(t *testing.T, db *DB, tab, col string, row int, v int64) uint64 {
	t.Helper()
	tx, err := db.Begin(OLTP)
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if err := tx.Set(tab, col, row, v); err != nil {
		t.Fatalf("set: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	return db.oracle.Completed()
}

func olapGet(t *testing.T, db *DB, tab, col string, row int) int64 {
	t.Helper()
	tx, err := db.Begin(OLAP)
	if err != nil {
		t.Fatalf("olap begin: %v", err)
	}
	defer tx.Abort()
	v, err := tx.Get(tab, col, row)
	if err != nil {
		t.Fatalf("olap get: %v", err)
	}
	return v
}

// TestReplicationStreamsWrites is the core contract: commits on the
// primary (updates, inserts, deletes) appear on a bootstrapped replica
// at its reported watermark, and a second replica without its own
// durability behaves identically.
func TestReplicationStreamsWrites(t *testing.T) {
	p := openPrimary(t, WithInitialSchema(NewSchema("kv").Int64("v").Varchar("s").Build(), 64))
	commitWrite(t, p, "kv", "v", 0, 7) // pre-bootstrap state

	durable := openReplicaOf(t, p.ServeAddr(), WithDurability(t.TempDir()), WithSyncPolicy(SyncNone))
	memOnly := openReplicaOf(t, p.ServeAddr())

	if got := olapGet(t, durable, "kv", "v", 0); got != 7 {
		t.Fatalf("bootstrapped value = %d, want 7", got)
	}

	// Live stream: update, string write, insert, delete.
	commitWrite(t, p, "kv", "v", 1, 11)
	tx, _ := p.Begin(OLTP)
	if err := tx.SetString("kv", "s", 2, "hello"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, _ = p.Begin(OLTP)
	row, err := tx.Insert("kv", map[string]any{"v": int64(99), "s": "born"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, _ = p.Begin(OLTP)
	if err := tx.Delete("kv", 3); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	target := p.oracle.Completed()

	for name, r := range map[string]*DB{"durable": durable, "memory": memOnly} {
		waitReplicaTS(t, r, target)
		if got := olapGet(t, r, "kv", "v", 1); got != 11 {
			t.Errorf("%s: v[1] = %d, want 11", name, got)
		}
		if got := olapGet(t, r, "kv", "v", row); got != 99 {
			t.Errorf("%s: inserted v[%d] = %d, want 99", name, row, got)
		}
		rtx, _ := r.Begin(OLAP)
		if s, err := rtx.GetString("kv", "s", 2); err != nil || s != "hello" {
			t.Errorf("%s: s[2] = %q, %v; want hello", name, s, err)
		}
		if _, err := rtx.Get("kv", "v", 3); !errors.Is(err, ErrRowNotVisible) {
			t.Errorf("%s: deleted row readable: %v", name, err)
		}
		n, err := rtx.Aggregate("kv", "v", Count)
		if err != nil {
			t.Fatalf("%s: count: %v", name, err)
		}
		ptx, _ := p.Begin(OLAP)
		want, _ := ptx.Aggregate("kv", "v", Count)
		ptx.Abort()
		if n != want {
			t.Errorf("%s: visible rows = %d, primary has %d", name, n, want)
		}
		rtx.Abort()

		st := r.Stats()
		if !st.Replica || st.Promoted {
			t.Errorf("%s: stats role: replica=%v promoted=%v", name, st.Replica, st.Promoted)
		}
		if !st.ReplicaConnected || st.ReplicaAppliedTS < target {
			t.Errorf("%s: stats health: connected=%v applied=%d (target %d)",
				name, st.ReplicaConnected, st.ReplicaAppliedTS, target)
		}
	}

	pst := p.Stats()
	if pst.ConnectedReplicas != 2 {
		t.Errorf("primary ConnectedReplicas = %d, want 2", pst.ConnectedReplicas)
	}
	if pst.ReplFramesStreamed == 0 || !pst.Serving {
		t.Errorf("primary stream stats: frames=%d serving=%v", pst.ReplFramesStreamed, pst.Serving)
	}
}

// TestReplicationStreamsDDL covers schema records over the live
// stream: table creation, index DDL, truncate and drop all mirror on
// the replica exactly once despite the bootstrap overlap.
func TestReplicationStreamsDDL(t *testing.T) {
	p := openPrimary(t, WithInitialSchema(NewSchema("a").Int64("x").Build(), 16))
	r := openReplicaOf(t, p.ServeAddr())

	if err := p.CreateTable(NewSchema("b").Int64("y").Build(), 8); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateIndex("b", "y", Hash); err != nil {
		t.Fatal(err)
	}
	ts := commitWrite(t, p, "b", "y", 2, 42)
	waitReplicaTS(t, r, ts)

	rtx, err := r.Begin(OLAP)
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := rtx.Lookup("b", "y", 42); err != nil || len(rows) != 1 || rows[0] != 2 {
		t.Fatalf("replica index lookup = %v, %v; want [2]", rows, err)
	}
	rtx.Abort()

	// Truncate then repopulate; then drop a different table.
	if err := p.Truncate("b"); err != nil {
		t.Fatal(err)
	}
	for _, y := range []int64{5, 6} {
		tx, _ := p.Begin(OLTP)
		if _, err := tx.Insert("b", map[string]any{"y": y}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.DropTable("a"); err != nil {
		t.Fatal(err)
	}
	// A trailing commit gives the replica a watermark past the drop.
	ts = commitWrite(t, p, "b", "y", 0, 7)
	waitReplicaTS(t, r, ts)

	rtx, _ = r.Begin(OLAP)
	n, err := rtx.Aggregate("b", "y", Count)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 { // the repopulated row + row 0 written above
		t.Errorf("post-truncate visible rows = %d, want 2", n)
	}
	if _, err := rtx.Scan("a", "x"); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("dropped table still scannable: %v", err)
	}
	rtx.Abort()
}

// TestReplicationStreamsLoad: bulk loads stream as load records and
// land on wts-zero rows only.
func TestReplicationStreamsLoad(t *testing.T) {
	p := openPrimary(t, WithInitialSchema(NewSchema("l").Int64("v").Build(), 32))
	r := openReplicaOf(t, p.ServeAddr())

	vals := make([]int64, 32)
	for i := range vals {
		vals[i] = int64(i * 3)
	}
	if err := p.Load("l", "v", vals); err != nil {
		t.Fatal(err)
	}
	// A commit after the load gives the replica a watermark to converge on.
	ts := commitWrite(t, p, "l", "v", 0, 1000)
	waitReplicaTS(t, r, ts)

	if got := olapGet(t, r, "l", "v", 10); got != 30 {
		t.Errorf("loaded v[10] = %d, want 30", got)
	}
	if got := olapGet(t, r, "l", "v", 0); got != 1000 {
		t.Errorf("committed-over-load v[0] = %d, want 1000", got)
	}
}

// TestReplicaRejectsWrites: every local mutation path returns
// ErrReplicaRead until promotion; OLAP reads keep working.
func TestReplicaRejectsWrites(t *testing.T) {
	p := openPrimary(t, WithInitialSchema(NewSchema("kv").Int64("v").Build(), 8))
	r := openReplicaOf(t, p.ServeAddr())

	if _, err := r.Begin(OLTP); !errors.Is(err, ErrReplicaRead) {
		t.Errorf("Begin(OLTP) = %v, want ErrReplicaRead", err)
	}
	if err := r.CreateTable(NewSchema("x").Int64("a").Build(), 4); !errors.Is(err, ErrReplicaRead) {
		t.Errorf("CreateTable = %v, want ErrReplicaRead", err)
	}
	if err := r.DropTable("kv"); !errors.Is(err, ErrReplicaRead) {
		t.Errorf("DropTable = %v, want ErrReplicaRead", err)
	}
	if err := r.Truncate("kv"); !errors.Is(err, ErrReplicaRead) {
		t.Errorf("Truncate = %v, want ErrReplicaRead", err)
	}
	if err := r.CreateIndex("kv", "v", Hash); !errors.Is(err, ErrReplicaRead) {
		t.Errorf("CreateIndex = %v, want ErrReplicaRead", err)
	}
	if err := r.DropIndex("kv", "v"); !errors.Is(err, ErrReplicaRead) {
		t.Errorf("DropIndex = %v, want ErrReplicaRead", err)
	}
	if err := r.Load("kv", "v", []int64{1}); !errors.Is(err, ErrReplicaRead) {
		t.Errorf("Load = %v, want ErrReplicaRead", err)
	}
	if err := r.LoadStrings("kv", "v", []string{"a"}); !errors.Is(err, ErrReplicaRead) {
		t.Errorf("LoadStrings = %v, want ErrReplicaRead", err)
	}
	if _, err := r.Begin(OLAP); err != nil {
		t.Errorf("Begin(OLAP) on replica failed: %v", err)
	}
	if err := r.Promote(0); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if _, err := r.Begin(OLTP); err != nil {
		t.Errorf("Begin(OLTP) after Promote failed: %v", err)
	}
}

// TestReplicaRestartRebootstraps: a durable replica closed and
// reopened against the primary re-bootstraps (fast-forward) and
// converges on writes it missed while down.
func TestReplicaRestartRebootstraps(t *testing.T) {
	p := openPrimary(t, WithInitialSchema(NewSchema("kv").Int64("v").Build(), 8))
	dir := t.TempDir()

	r, err := Open(WithCostModel(ZeroCost), WithDurability(dir), WithSyncPolicy(SyncNone), WithReplicaOf(p.ServeAddr()))
	if err != nil {
		t.Fatalf("open replica: %v", err)
	}
	ts := commitWrite(t, p, "kv", "v", 0, 1)
	waitReplicaTS(t, r, ts)
	if err := r.Close(); err != nil {
		t.Fatalf("close replica: %v", err)
	}

	// Writes while the replica is down.
	commitWrite(t, p, "kv", "v", 0, 2)
	ts = commitWrite(t, p, "kv", "v", 1, 3)

	r2, err := Open(WithCostModel(ZeroCost), WithDurability(dir), WithSyncPolicy(SyncNone), WithReplicaOf(p.ServeAddr()))
	if err != nil {
		t.Fatalf("reopen replica: %v", err)
	}
	defer r2.Close()
	waitReplicaTS(t, r2, ts)
	if got := olapGet(t, r2, "kv", "v", 0); got != 2 {
		t.Errorf("v[0] = %d after restart, want 2", got)
	}
	if got := olapGet(t, r2, "kv", "v", 1); got != 3 {
		t.Errorf("v[1] = %d after restart, want 3", got)
	}
	if r2.Stats().ReplicaBootstraps == 0 {
		t.Error("reopened replica did not bootstrap")
	}
}

// TestRemoteSession: the networked Session surface against a served
// primary — full op coverage, sentinel-error fidelity across the wire,
// and the session-vs-embedded interchangeability the interface
// promises.
func TestRemoteSession(t *testing.T) {
	p := openPrimary(t, WithInitialSchema(NewSchema("kv").Int64("v").Varchar("s").Build(), 16))

	var sess Session
	sess, err := Dial(p.ServeAddr(), "")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer sess.Close()

	tx, err := sess.BeginTxn(OLTP)
	if err != nil {
		t.Fatalf("remote begin: %v", err)
	}
	if tx.Class() != OLTP {
		t.Errorf("Class = %v", tx.Class())
	}
	if err := tx.Set("kv", "v", 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := tx.SetString("kv", "s", 1, "one"); err != nil {
		t.Fatal(err)
	}
	row, err := tx.Insert("kv", map[string]any{"v": 77, "s": "ins"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("kv", 2); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("remote commit: %v", err)
	}

	rd, err := sess.BeginTxn(OLAP)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := rd.Get("kv", "v", 1); err != nil || v != 10 {
		t.Errorf("Get = %d, %v", v, err)
	}
	if s, err := rd.GetString("kv", "s", 1); err != nil || s != "one" {
		t.Errorf("GetString = %q, %v", s, err)
	}
	if v, err := rd.Get("kv", "v", row); err != nil || v != 77 {
		t.Errorf("inserted Get = %d, %v", v, err)
	}
	if vals, err := rd.Scan("kv", "v"); err != nil || len(vals) == 0 {
		t.Errorf("Scan = %d vals, %v", len(vals), err)
	}
	if _, err := rd.Filter("kv", "v", 10, 10); err != nil {
		t.Errorf("Filter: %v", err)
	}
	if _, err := rd.Lookup("kv", "v", 10); err != nil {
		t.Errorf("Lookup: %v", err)
	}
	if n, err := rd.Aggregate("kv", "v", Count); err != nil || n == 0 {
		t.Errorf("Aggregate Count = %d, %v", n, err)
	}

	// Sentinel fidelity across the wire.
	if _, err := rd.Get("nope", "v", 0); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("unknown table error = %v, want ErrNoSuchTable", err)
	}
	if _, err := rd.Get("kv", "nope", 0); !errors.Is(err, ErrNoSuchColumn) {
		t.Errorf("unknown column error = %v, want ErrNoSuchColumn", err)
	}
	if _, err := rd.Get("kv", "v", 2); !errors.Is(err, ErrRowNotVisible) || !errors.Is(err, ErrRowRange) {
		t.Errorf("deleted row error = %v, want ErrRowNotVisible (and ErrRowRange alias)", err)
	}
	if err := rd.Set("kv", "v", 0, 1); !errors.Is(err, ErrReadOnly) {
		t.Errorf("OLAP write error = %v, want ErrReadOnly", err)
	}
	if msg := fmt.Sprint(rd.Set("kv", "v", 0, 1)); !strings.Contains(msg, "read-only") {
		t.Errorf("remote error lost its message: %q", msg)
	}
	if err := rd.Abort(); err != nil {
		t.Fatal(err)
	}

	// Stats over the wire carry the replication surface.
	if st := sess.Stats(); !st.Serving || st.Strategy == "" {
		t.Errorf("remote Stats = serving:%v strategy:%q", st.Serving, st.Strategy)
	}

	// Unknown namespace refused at handshake.
	if _, err := Dial(p.ServeAddr(), "ghost"); err == nil || !strings.Contains(err.Error(), "namespace") {
		t.Errorf("ghost namespace dial = %v", err)
	}
}

// TestRemoteSessionAdmission: the WithServeMaxSessions cap refuses the
// excess dial with a wire-coded ErrTooManySessions.
func TestRemoteSessionAdmission(t *testing.T) {
	p := openPrimary(t,
		WithInitialSchema(NewSchema("kv").Int64("v").Build(), 8),
		WithServeMaxSessions(2))

	s1, err := Dial(p.ServeAddr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := Dial(p.ServeAddr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	s3, err := Dial(p.ServeAddr(), "")
	if err == nil {
		// The refusal races the dial's first read; force a round trip.
		_, err = s3.BeginTxn(OLAP)
		s3.Close()
	}
	if !errors.Is(err, ErrTooManySessions) {
		t.Errorf("third dial = %v, want ErrTooManySessions", err)
	}

	// Slots free on close: a new session is admitted.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s4, err := Dial(p.ServeAddr(), "")
		if err == nil {
			if _, err = s4.BeginTxn(OLAP); err == nil {
				s4.Close()
				break
			}
			s4.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicationChained: a replica that also serves can feed a
// second-tier replica (its own schema log being a byte-exact prefix of
// the primary's makes the chain sound).
func TestReplicationChained(t *testing.T) {
	p := openPrimary(t, WithInitialSchema(NewSchema("kv").Int64("v").Build(), 8))
	mid := openReplicaOf(t, p.ServeAddr(),
		WithDurability(t.TempDir()), WithSyncPolicy(SyncNone), WithServeAddr("127.0.0.1:0"))
	leaf := openReplicaOf(t, mid.ServeAddr())

	ts := commitWrite(t, p, "kv", "v", 3, 33)
	waitReplicaTS(t, mid, ts)
	waitReplicaTS(t, leaf, ts)
	if got := olapGet(t, leaf, "kv", "v", 3); got != 33 {
		t.Errorf("chained v[3] = %d, want 33", got)
	}
}

// TestSessionEmbeddedDB: the embedded *DB satisfies the same Session
// interface the remote client does, so code written against Session
// runs unchanged in-process.
func TestSessionEmbeddedDB(t *testing.T) {
	db, err := Open(
		WithCostModel(ZeroCost),
		WithInitialSchema(NewSchema("kv").Int64("v").Build(), 8),
	)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var s Session = db
	defer s.Close()

	w, err := s.BeginTxn(OLTP)
	if err != nil {
		t.Fatalf("embedded BeginTxn(OLTP): %v", err)
	}
	if err := w.Set("kv", "v", 2, 42); err != nil {
		t.Fatalf("set: %v", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	r, err := s.BeginTxn(OLAP)
	if err != nil {
		t.Fatalf("embedded BeginTxn(OLAP): %v", err)
	}
	if got, err := r.Get("kv", "v", 2); err != nil || got != 42 {
		t.Fatalf("get = %d, %v; want 42", got, err)
	}
	if r.SnapshotTS() == 0 {
		t.Fatal("embedded OLAP SnapshotTS = 0")
	}
	if err := r.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if st := s.Stats(); st.Strategy == "" {
		t.Fatal("embedded Stats missing strategy")
	}
}

// TestServerMultiNamespace: one NewServer front serves several
// registered databases behind a single port, resolved per-session by
// namespace; the server's Close severs sessions without closing the
// databases it fronts.
func TestServerMultiNamespace(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	open := func(val int64) *DB {
		db, err := Open(
			WithCostModel(ZeroCost),
			WithInitialSchema(NewSchema("kv").Int64("v").Build(), 8),
		)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		t.Cleanup(func() { db.Close() })
		commitWrite(t, db, "kv", "v", 0, val)
		return db
	}
	srv.Register("alpha", open(11))
	srv.Register("", open(22)) // empty namespace serves as "default"

	for ns, want := range map[string]int64{"alpha": 11, "default": 22} {
		sess, err := Dial(srv.Addr(), ns)
		if err != nil {
			t.Fatalf("dial %s: %v", ns, err)
		}
		tx, err := sess.BeginTxn(OLAP)
		if err != nil {
			t.Fatalf("%s begin: %v", ns, err)
		}
		if tx.SnapshotTS() == 0 {
			t.Errorf("%s remote SnapshotTS = 0", ns)
		}
		if got, err := tx.Get("kv", "v", 0); err != nil || got != want {
			t.Errorf("%s v[0] = %d, %v; want %d", ns, got, err, want)
		}
		if err := tx.Abort(); err != nil {
			t.Fatalf("%s abort: %v", ns, err)
		}
		if err := sess.Close(); err != nil {
			t.Fatalf("%s close: %v", ns, err)
		}
	}

	// The front's Close leaves the registered databases usable.
	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	if _, err := Dial(srv.Addr(), "alpha"); err == nil {
		t.Fatal("dial after server Close succeeded")
	}
}

// TestReplicaReportsStalenessFromOpen: the staleness contract starts
// at Open, not at the first heartbeat — a freshly bootstrapped replica
// must already report a live connection and the primary's watermark
// from the welcome frame (caught by external-consumer verification:
// both read as zero until the 100ms heartbeat cadence first fired).
func TestReplicaReportsStalenessFromOpen(t *testing.T) {
	p := openPrimary(t, WithInitialSchema(NewSchema("kv").Int64("v").Build(), 8))
	ts := commitWrite(t, p, "kv", "v", 0, 5)

	r := openReplicaOf(t, p.ServeAddr())
	st := r.Stats()
	if !st.ReplicaConnected {
		t.Error("replica not reported connected immediately after Open")
	}
	if st.ReplicaSourceTS < ts {
		t.Errorf("ReplicaSourceTS = %d immediately after Open, want >= %d", st.ReplicaSourceTS, ts)
	}
}

// TestReplicaWatermarkAfterTrailingConflict: a validation conflict
// completes its timestamp as a no-op without firing the oracle's
// complete hook. When it is the newest timestamp, the replica must
// still converge on the primary's completed watermark within a few
// heartbeats instead of trailing until the next real commit.
func TestReplicaWatermarkAfterTrailingConflict(t *testing.T) {
	p := openPrimary(t, WithInitialSchema(NewSchema("kv").Int64("v").Build(), 8))
	commitWrite(t, p, "kv", "v", 0, 1)
	r := openReplicaOf(t, p.ServeAddr())

	a, err := p.Begin(OLTP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Get("kv", "v", 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Set("kv", "v", 1, 2); err != nil {
		t.Fatal(err)
	}
	last := commitWrite(t, p, "kv", "v", 0, 3) // invalidates a's read
	waitReplicaTS(t, r, last)
	if err := a.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("Commit = %v, want ErrConflict", err)
	}
	want := p.Stats().CompletedCommitTS
	if want != last+1 {
		t.Fatalf("primary completed %d after the conflict, want the no-op slot %d", want, last+1)
	}
	deadline := time.Now().Add(5 * heartbeatEvery)
	for {
		got := r.Stats().CompletedCommitTS
		if got == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica CompletedCommitTS = %d, primary %d after %v", got, want, 5*heartbeatEvery)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
