// Package ankerdb is the public engine facade of the AnKerDB
// reproduction: a hybrid OLTP/OLAP main-memory column store that
// accelerates analytical processing in MVCC with fine-granular,
// high-frequency virtual snapshotting (SIGMOD 2018).
//
// The facade composes the internal layers into one runnable system:
//
//   - internal/phys + internal/vmem: a simulated virtual memory
//     subsystem (VMAs, page tables, COW, fork, vm_snapshot)
//   - internal/storage: columnar tables hosted in that virtual memory
//   - internal/snapshot: the four snapshot strategies the paper
//     compares (physical, fork, rewired, vmsnap)
//   - internal/mvcc: version chains, precision-locking validation and
//     the timestamp oracle
//   - internal/query: the streaming query engine — composable
//     operators (scan → filter → project → hash join →
//     group-by/aggregate) over one pinned snapshot generation, with
//     per-block min/max zone maps pruning the scan below the filter
//     and morsel-driven parallelism across GOMAXPROCS workers
//     (deterministic results at any worker count)
//   - internal/index: transactional secondary indexes (Hash for
//     equality, Ordered for ranges) whose entries carry birth/death
//     commit timestamps like the row-visibility arrays — maintained
//     in the commit shard's critical section, probed at any snapshot
//     without locks, and rebuilt deterministically at recovery
//   - internal/wal: the durability subsystem — per-commit-shard
//     write-ahead log with group-commit fsync batching, WAL-logged
//     bulk loads, snapshot-driven checkpoints (manual or scheduled),
//     and streaming O(chunk)-memory crash recovery (enabled with
//     WithDurability; the default remains purely in-memory)
//   - internal/repl: the replication and serving tier — a framed wire
//     protocol over TCP carrying the primary's WAL record payloads
//     byte-identically to read replicas, plus a FIFO publisher that
//     releases records in WAL-append order gated on the commit
//     completion watermark, so subscribers never observe a torn or
//     reordered stream; control and session messages use fixed
//     little-endian layouts (no reflection codec), and the hello
//     carries a protocol version byte a mismatched peer is refused on
//   - internal/telemetry: lock-free observability primitives — atomic
//     log2-bucketed latency histograms on every hot phase and an
//     always-on flight-recorder ring of structured trace events
//   - internal/fault: the injectable file system the durability stack
//     runs over — a passthrough by default (fault.OS, one interface
//     call of overhead), or a scripted adversary with a seeded
//     crash/torn-write/short-write/fsync-lie schedule for the
//     deterministic crash-recovery harness (substituted via the
//     test-only WithFS option)
//
// Open-time options: WithSnapshotStrategy, WithCostModel,
// WithPageSize, WithSnapshotRefresh, WithSnapshotMaxAge,
// WithInitialSchema, WithCommitShards, WithGroupCommitMaxWait,
// WithDurability, WithSyncPolicy, WithAutoCheckpoint,
// WithAutoCheckpointInterval, WithSlowQueryThreshold,
// WithMetricsServer, WithServeAddr, WithReplicaOf, WithNamespace,
// WithServeMaxSessions, WithFS (test-only fault injection).
//
// Short modifying OLTP transactions stage writes locally, validate
// against recently committed writers at commit (precision locking, so
// snapshot isolation is upgraded to serializability), and materialize
// in place while pushing displaced versions onto version chains. Long
// read-only OLAP transactions never traverse version chains on the hot
// path: they scan virtual snapshots of exactly the columns they touch,
// taken through the configured snapshot strategy and refreshed every n
// commits. Rows the snapshot caught mid-flight (written after the
// snapshot's timestamp) are repaired from the version chains.
//
// Tables are growable: Txn.Insert reserves a row slot (reusing
// Vacuum-reclaimed free-list slots before mapping new capacity
// chunks) and births it at the commit timestamp; Txn.Delete stamps a
// death timestamp. Every read path — point reads, scans, filters,
// aggregates and Count — resolves the per-row birth/death pair at its
// read timestamp, so the visible row set is snapshot-consistent, and
// the visibility arrays are virtually snapshotted fine-granularly
// like any other column. Rows outside the visible set fail with
// ErrRowNotVisible (which also matches ErrRowRange under errors.Is).
//
// Tables are also droppable: DB.DropTable removes a table (chunks
// unmapped once unreachable, name reusable) and DB.Truncate empties
// one (schema and declared indexes survive). Both append torn-tail-safe
// marker records to the durable schema log and replay exactly once at
// recovery; a transaction that staged against the old incarnation
// fails its commit with ErrNoSuchTable/ErrConflict instead of writing
// into the new one.
//
// Crash recovery is observable and typed: DB.RecoveryReport returns
// what Open-time recovery did (replayed transactions and loads,
// torn-tail bytes cut off, indexes rebuilt), and an Open that fails on
// genuinely damaged state returns an error matching ErrCorruptWAL or
// ErrCorruptCheckpoint under errors.Is, naming the file and offset.
//
// A minimal session:
//
//	db, _ := ankerdb.Open(
//		ankerdb.WithSnapshotStrategy(ankerdb.VMSnap),
//		ankerdb.WithSnapshotRefresh(16),
//	)
//	defer db.Close()
//	db.CreateTable(ankerdb.Schema{
//		Table:   "orders",
//		Columns: []ankerdb.ColumnDef{{Name: "qty", Type: ankerdb.Int64}},
//	}, 1<<16)
//
//	w, _ := db.Begin(ankerdb.OLTP)
//	w.Set("orders", "qty", 42, 7)
//	w.Commit()
//
//	r, _ := db.Begin(ankerdb.OLAP)
//	sum, _ := r.Aggregate("orders", "qty", ankerdb.Sum)
//	r.Commit()
//
// Analytical queries compose through the streaming engine: Txn.Query
// binds a builder to an OLAP transaction's pinned snapshot (DB.Query
// is the one-shot form), and every operator — filter with a predicate
// tree, hash join against tables read at the same snapshot, group-by
// with multiple aggregates — executes morsel-parallel with zone-map
// pruning:
//
//	res, _ := db.Query("orders").
//		Where(ankerdb.Between("qty", 100, 500)).
//		GroupBy("qty").
//		Aggregate(ankerdb.CountRows(), ankerdb.SumOf("qty")).
//		Limit(10).
//		Run()
//	for i := 0; i < res.Len(); i++ {
//		fmt.Println(res.At(i, 0), res.At(i, 1), res.At(i, 2))
//	}
//
// Columns can carry transactional secondary indexes, declared fluently
// with the SchemaBuilder (or via ColumnDef.Index) and built or dropped
// online with DB.CreateIndex / DB.DropIndex. Txn.Lookup answers "which
// rows hold this value" through the index in O(matches), and both
// Txn.Filter and the query engine's Eq/Between conjuncts route through
// the same probe when the index estimates it beats a scan:
//
//	db.CreateTable(ankerdb.NewSchema("users").
//		Int64("uid").Indexed(ankerdb.Hash).
//		Int64("score").Indexed(ankerdb.Ordered).
//		Build(), 1<<16)
//
//	w, _ := db.Begin(ankerdb.OLTP)
//	rows, _ := w.Lookup("users", "uid", 42)
//
// The engine is observable without touching its contended paths:
// DB.Stats carries phase-latency histograms (commit linger, lock wait,
// validate, install, fsync; snapshot creation; query execution;
// checkpoint, recovery replay, vacuum) next to its counters,
// DB.TraceDump renders the flight recorder's surviving event window,
// DB.SlowQueries returns the newest queries slower than the
// WithSlowQueryThreshold cutoff with their per-operator row
// breakdown, and DB.MetricsText writes the whole surface as
// Prometheus text under stable ankerdb_* names. WithMetricsServer
// serves /metrics, /debug/vars (expvar), /debug/pprof and
// /debug/trace over HTTP on a dedicated mux.
//
// A durable database becomes a networked serving primary with
// WithServeAddr(addr): remote clients Dial(addr, namespace) a Session
// — the interface (BeginTxn, Stats, Close) the embedded *DB also
// satisfies, so code written against Session runs unchanged
// in-process or over the wire, and sentinel errors (ErrConflict,
// ErrNoSuchTable, ErrRowNotVisible, ...) match under errors.Is on
// both sides. Each request and response is one fixed little-endian
// layout encoded into the connection's reused buffer, so a remote Get
// costs a handful of allocations end to end. WithServeMaxSessions caps
// concurrent remote sessions
// (the excess dial fails with ErrTooManySessions); WithNamespace
// names the served database, and NewServer + Server.Register front
// several databases behind one port.
//
// WithReplicaOf(addr) opens the database as a read replica of a
// serving primary: it bootstraps a checkpoint-style snapshot, then
// continuously replays the primary's commit, load and schema records
// through the same idempotent-by-commitTS rules crash recovery uses —
// replication is recovery over the wire. The replica is a live
// database serving OLAP snapshot reads at bounded, reported staleness
// (Stats.ReplicaAppliedTS against Stats.ReplicaSourceTS; the primary
// reports per-replica lag in commits via Stats.MaxReplicaLag and the
// ReplicaLagHist histogram). Local mutations fail with ErrReplicaRead
// until DB.Promote(requireTS) turns the replica into a primary —
// refusing with ErrStalePromotion when its applied watermark has not
// reached requireTS, so electing the most-caught-up replica after a
// primary failure loses no committed transaction. A durable replica
// re-appends every applied record to its own WAL and restarts
// standalone; a serving replica (WithServeAddr alongside WithReplicaOf)
// answers remote read sessions and can feed second-tier replicas.
//
// Note on Filter: its positional (lo, hi) range form predates the
// predicate tree and is retained for compatibility; for equality
// prefer Lookup, and for anything more structured than a single
// closed range prefer the query builder's Where — both stay on the
// index-backed path, and the builder composes And/Or/Not without the
// positional-range ambiguity.
package ankerdb
