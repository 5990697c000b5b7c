package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"ankerdb"
)

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, env: map[string]any{}}
}

func memOpts() []ankerdb.Option {
	return []ankerdb.Option{
		ankerdb.WithSnapshotStrategy(ankerdb.VMSnap),
		ankerdb.WithCostModel(ankerdb.DefaultCost),
	}
}

func durableOpts(dir string, extra ...ankerdb.Option) []ankerdb.Option {
	return append(append(memOpts(),
		ankerdb.WithDurability(dir),
		ankerdb.WithSyncPolicy(ankerdb.SyncNone)), extra...)
}

// windows is how many equal windows each measured instance's timed
// phase is split into; each end-to-end metric is the median of its
// per-window values over every instance of the run.
const windows = 4

// instance is one set-up database (or primary and replica) ready to be
// measured: its clients and their closed-loop ops, the warm-up that must
// finish before timing starts, and finish, which checks what the
// instance answered and releases it.
type instance struct {
	dbs     []*ankerdb.DB // databases whose Stats feed the per-layer metrics
	clients []*client
	fns     []func(*client)
	warm    func() error
	finish  func(o *outcome, last bool) error
}

// measureInstances sets up cfg.setups instances one after another,
// timing each set-up, and measures each for an equal share of
// cfg.seconds: the run's figures span several independent set-ups
// (memory placement, hot pages, checkpoints), not one. A traced run sets
// up one instance and splits its time into an untraced and a traced
// half: the traced half gives the per-layer metrics, the pair the
// tracing overhead.
func measureInstances(cfg *runConfig, o *outcome, open func(i int) (*instance, error)) error {
	n := cfg.setups
	if cfg.trace {
		n = 1
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	var setups []time.Duration
	var phases []*phase
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		in, err := open(i)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
		if err = in.warm(); err == nil {
			if cfg.trace {
				err = traced(cfg, o, in, d)
			} else {
				phases = append(phases, measure(in.dbs, in.clients, in.fns, d/time.Duration(n), windows, false))
			}
		}
		collectFailures(o, in.clients)
		if ferr := in.finish(o, i == n-1); err == nil {
			err = ferr
		}
		if err != nil {
			return err
		}
	}
	o.metrics["setup_s"] = medianSeconds(setups)
	if !cfg.trace {
		ph := mergePhases(phases)
		ph.endToEnd(o.metrics)
		o.note("also txn_p99_us %.4f us, query_p95_ms %.4f ms (medians over %d windows)",
			o.metrics["txn_p99_us"], o.metrics["query_p95_ms"], len(ph.windows))
		noteCommon(o, ph)
	}
	return nil
}

func traced(cfg *runConfig, o *outcome, in *instance, d time.Duration) error {
	ref := measure(in.dbs, in.clients, in.fns, d/2, 1, false)
	ph := measure(in.dbs, in.clients, in.fns, d/2, 1, true)
	ph.perLayer(o.metrics, ref)
	o.extra = append(o.extra, ph.selfTimeLines()...)
	noteCommon(o, ph)
	// Per-op means of layers some workloads bypass: reported as rates in
	// the metrics, and per op here where the layer did work.
	delta := ph.after.sub(ph.before)
	for _, l := range []struct {
		name string
		n    uint64
		v    float64
	}{
		{"commit.lock_wait_us", delta.lockWait.n, delta.lockWait.meanUs()},
		{"wal.append_us", delta.fsync.n, delta.fsync.meanUs()},
		{"wal.checkpoint_ms", delta.checkpoint.n, delta.checkpoint.meanUs() / 1e3},
	} {
		if l.n > 0 {
			o.note("also %s %.4f (n=%d)", l.name, l.v, l.n)
		}
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	n, err := writeTrace(path, ph.traces)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	o.note("trace %d spans written to %s", n, path)
	return nil
}

// noteCommon prints the counts and the workload-specific timings that
// are not end-to-end metrics of every workload.
func noteCommon(o *outcome, ph *phase) {
	txns := ph.sum(func(t *tally) int64 { return t.committed + t.aborted })
	aborted := ph.sum(func(t *tally) int64 { return t.aborted })
	o.note("also abort_pct %.4f %% (%d of %d txns)", 100*ratio(float64(aborted), float64(txns)), aborted, txns)
	o.note("also samples txn=%d query=%d", len(ph.samples(func(t *tally) []int64 { return t.txnLat })),
		len(ph.samples(func(t *tally) []int64 { return t.queryLat })))
	if lag := ph.samples(func(t *tally) []int64 { return t.lagLat }); len(lag) > 0 {
		o.note("also replica_lag_p50_ms %.4f ms, repl.lag_p95_ms %.4f ms (n=%d)",
			percentile(lag, 0.5)/1e6, percentile(lag, 0.95)/1e6, len(lag))
	}
}

// runHTAP is the paper's §5 experiment: one in-memory table of 8 int64
// columns × 2^21 rows (128 MiB), a transfer client on the newest state
// and an analyst client aggregating over per-commit snapshots.
func runHTAP(cfg *runConfig) (*outcome, error) {
	o := newOutcome()
	rows := 1 << 21 >> cfg.scale
	o.env["strategy"], o.env["sync"], o.env["rows"], o.env["columns"] = "vmsnap", "in-memory", rows, len(cols)
	var loads []time.Duration
	err := measureInstances(cfg, o, func(i int) (*instance, error) {
		db, err := ankerdb.Open(append(memOpts(), ankerdb.WithInitialSchema(tableSchema(false), rows))...)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		sums, err := loadTable(db, rows, cfg.seed)
		if err != nil {
			_ = db.Close()
			return nil, err
		}
		loads = append(loads, time.Since(t0))
		chk := &sumChecker{want: sums, rows: int64(rows)}
		in := &instance{
			dbs:     []*ankerdb.DB{db},
			clients: newClients(cfg.seed, i, rows, 1.1),
			fns: []func(*client){
				func(c *client) { c.transfer(db) },
				func(c *client) { c.analyst(db, chk.check) },
			},
			finish: func(o *outcome, _ bool) error {
				checkAllSums(o, db, chk)
				return db.Close()
			},
		}
		in.warm = func() error { return warmOps(in, 20000>>cfg.scale, 8) }
		return in, nil
	})
	o.metrics["storage.load_s"] = medianSeconds(loads)
	fillBypassed(o.metrics)
	return o, err
}

// checkAllSums aggregates every column in one query on a fresh snapshot
// and compares each sum and the row count with the conserved values.
func checkAllSums(o *outcome, db *ankerdb.DB, chk *sumChecker) {
	o.attempted++
	sums, count, err := allSums(db)
	if err != nil {
		o.fail("final aggregate: %v", err)
		return
	}
	for k := range cols {
		if err := chk.check(k, sums[k], count); err != nil {
			o.fail("final %v", err)
		}
	}
}

func allSums(db *ankerdb.DB) ([]int64, int64, error) {
	var aggs []ankerdb.AggSpec
	for _, c := range cols {
		aggs = append(aggs, ankerdb.SumOf(c))
	}
	aggs = append(aggs, ankerdb.CountRows())
	res, err := db.Query(table).Aggregate(aggs...).Run()
	if err != nil {
		return nil, 0, err
	}
	sums := make([]int64, len(cols))
	for k := range cols {
		sums[k] = res.At(0, k)
	}
	return sums, res.At(0, len(cols)), nil
}

// fillBypassed sets the per-layer metrics a workload does not reach
// (recovery, bootstrap, replica convergence) to zero, unless it
// measured them.
func fillBypassed(m map[string]float64) {
	for _, k := range []string{"wal.replayed_txns", "wal.replay_txn_per_s", "wal.recovery_peak_bytes",
		"index.rebuilt", "repl.bootstraps", "repl.final_gap_commits"} {
		if _, ok := m[k]; !ok {
			m[k] = 0
		}
	}
}

// tpcc generates the new-order/payment-style mix of internal/workload
// (a separate module cannot import that package): 45% new-order (insert an order row, update 4 hot rows), 43% payment
// (update 1, read 2), 8% order-status (read 3), 4% delivery (delete the
// client's oldest open order). Hot rows are zipf(1.3) over the initial
// rows, which are never deleted; every written value is unique.
type tpcc struct {
	rnd  *rand.Rand
	zipf *rand.Zipf
	next int64
	live []int // this client's inserted, undeleted rows, oldest first
}

func newTPCC(seed int64, instance, id, rows int) *tpcc {
	rnd := rand.New(rand.NewSource(seed*7_919 + int64(instance)*31 + int64(id)))
	return &tpcc{rnd: rnd, zipf: rand.NewZipf(rnd, 1.3, 1, uint64(rows-1)), next: int64(id+1) << 40}
}

func (g *tpcc) cell() (string, int) { return cols[g.rnd.Intn(len(cols))], int(g.zipf.Uint64()) }

func (g *tpcc) val() int64 { g.next++; return g.next }

// tpccTxn runs one generated transaction on db.
func (c *client) tpccTxn(db *ankerdb.DB, g *tpcc) {
	var reads, writes, inserts int
	del := false
	switch p := g.rnd.Intn(100); {
	case p < 45:
		inserts, writes = 1, 4
	case p < 88:
		writes, reads = 1, 2
	case p < 96:
		reads = 3
	default:
		del = len(g.live) > 0
	}
	c.attempted++
	t0 := time.Now()
	sp := c.tr.start(kTxn)
	defer c.tr.end(sp)
	b := c.tr.start(kBegin)
	txn, err := db.Begin(ankerdb.OLTP)
	c.tr.end(b)
	if err != nil {
		c.fail("begin: %v", err)
		return
	}
	stage := func(what string, f func() error) bool {
		s := c.tr.start(kStage)
		err := f()
		c.tr.end(s)
		if err != nil {
			_ = txn.Abort()
			c.fail("%s: %v", what, err)
		}
		return err == nil
	}
	for i := 0; i < reads; i++ {
		col, row := g.cell()
		if !stage("get", func() error { _, err := txn.Get(table, col, row); return err }) {
			return
		}
	}
	for i := 0; i < writes; i++ {
		col, row := g.cell()
		if !stage("set", func() error { return txn.Set(table, col, row, g.val()) }) {
			return
		}
	}
	inserted := -1
	for i := 0; i < inserts; i++ {
		vals := make(map[string]any, len(cols))
		for _, col := range cols {
			vals[col] = g.val()
		}
		if !stage("insert", func() error { r, err := txn.Insert(table, vals); inserted = r; return err }) {
			return
		}
	}
	if del && !stage("delete", func() error { return txn.Delete(table, g.live[0]) }) {
		return
	}
	cs := c.tr.start(kCommit)
	err = txn.Commit()
	c.tr.end(cs)
	c.noteCommit(err, time.Since(t0).Nanoseconds())
	if err != nil {
		return
	}
	if del {
		g.live = g.live[1:]
	}
	if inserted >= 0 {
		g.live = append(g.live, inserted)
	}
}

// dbState is what recovery must reproduce: the visible row count, every
// column's sum and the rows a seeded sample of c0 values look up.
type dbState struct {
	count   int64
	sums    []int64
	lookups [][]int
}

func captureState(db *ankerdb.DB, sample []int) (dbState, error) {
	var s dbState
	var err error
	if s.sums, s.count, err = allSums(db); err != nil {
		return s, err
	}
	txn, err := db.Begin(ankerdb.OLTP)
	if err != nil {
		return s, err
	}
	defer txn.Abort()
	for _, r := range sample {
		v, err := txn.Get(table, "c0", r)
		if err != nil {
			return s, fmt.Errorf("get c0[%d]: %w", r, err)
		}
		rows, err := txn.Lookup(table, "c0", v)
		if err != nil {
			return s, fmt.Errorf("lookup c0=%d: %w", v, err)
		}
		s.lookups = append(s.lookups, rows)
	}
	return s, nil
}

func (s dbState) diff(t dbState) error {
	if s.count != t.count || !slices.Equal(s.sums, t.sums) {
		return fmt.Errorf("count/sums (%d, %v) became (%d, %v)", s.count, s.sums, t.count, t.sums)
	}
	for i := range s.lookups {
		if !slices.Equal(s.lookups[i], t.lookups[i]) {
			return fmt.Errorf("lookup %d: rows %v became %v", i, s.lookups[i], t.lookups[i])
		}
	}
	return nil
}

// Auto-checkpoint threshold (WAL records) and the fixed tail committed
// after the run's last checkpoint, which recovery replays.
const (
	ckptRecords = 1 << 15
	tailTxns    = 20000
	reportEvery = 256 // oltp-durable: one report query per this many txns of the second client
)

// runOLTPDurable runs two logged TPC-C writers on a cache-sized table
// with a hash index on c0. After the last instance's timed phase it
// times recovery of a fixed seeded tail and checks recovery reproduced
// the state.
func runOLTPDurable(cfg *runConfig) (*outcome, error) {
	o := newOutcome()
	rows := 1 << 18 >> cfg.scale
	ckpt := ankerdb.WithAutoCheckpoint(0, ckptRecords>>cfg.scale)
	o.env["strategy"], o.env["sync"], o.env["rows"], o.env["columns"] = "vmsnap", "none", rows, len(cols)
	o.env["auto_checkpoint_records"] = ckptRecords >> cfg.scale
	var loads []time.Duration
	err := measureInstances(cfg, o, func(i int) (*instance, error) {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("oltp%d", i))
		db, err := ankerdb.Open(durableOpts(dir, ckpt, ankerdb.WithInitialSchema(tableSchema(true), rows))...)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		_, err = loadTable(db, rows, cfg.seed)
		loads = append(loads, time.Since(t0))
		if err == nil {
			err = db.Checkpoint()
		}
		if err != nil {
			_ = db.Close()
			return nil, err
		}
		gens := []*tpcc{newTPCC(cfg.seed, i, 0, rows), newTPCC(cfg.seed, i, 1, rows)}
		// Report queries read a table that grows and shrinks, so only the
		// never-deleted initial rows bound their count.
		atLeast := func(col int, _, count int64) error {
			if count < int64(rows) {
				return fmt.Errorf("report over %s counted %d rows, want at least %d", cols[col], count, rows)
			}
			return nil
		}
		ops := 0
		in := &instance{
			dbs:     []*ankerdb.DB{db},
			clients: newClients(cfg.seed, i, rows, 1.3),
			fns: []func(*client){
				func(c *client) { c.tpccTxn(db, gens[0]) },
				func(c *client) {
					if ops++; ops%reportEvery == 0 {
						c.analyst(db, atLeast)
					}
					c.tpccTxn(db, gens[1])
				},
			},
			finish: func(o *outcome, last bool) error {
				if !last {
					err := db.Close()
					_ = os.RemoveAll(dir)
					return err
				}
				return recoverTail(cfg, o, db, dir, rows, ckpt)
			},
		}
		in.warm = func() error { return warmOps(in, 20000>>cfg.scale, 20000>>cfg.scale) }
		return in, nil
	})
	o.metrics["storage.load_s"] = medianSeconds(loads)
	fillBypassed(o.metrics)
	return o, err
}

// recoverTail checkpoints db, commits a fixed seeded tail, captures the
// state, closes db and times the Open that replays the tail, then
// checks the recovered state equals the captured one.
func recoverTail(cfg *runConfig, o *outcome, db *ankerdb.DB, dir string, rows int, ckpt ankerdb.Option) error {
	if err := db.Checkpoint(); err != nil {
		_ = db.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	tail := newClients(cfg.seed, -1, rows, 1.3)[0]
	gen := newTPCC(cfg.seed, -1, 0, rows)
	for i := 0; i < tailTxns>>cfg.scale; i++ {
		tail.tpccTxn(db, gen)
	}
	collectFailures(o, []*client{tail})
	rnd := rand.New(rand.NewSource(cfg.seed))
	sample := make([]int, 64)
	for i := range sample {
		sample[i] = rnd.Intn(rows)
	}
	o.attempted++
	before, err := captureState(db, sample)
	if cerr := db.Close(); cerr != nil {
		return fmt.Errorf("close: %w", cerr)
	}
	if err != nil {
		o.fail("state before close: %v", err)
		return nil
	}
	t0 := time.Now()
	db2, err := ankerdb.Open(durableOpts(dir, ckpt)...)
	recovery := time.Since(t0)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer db2.Close()
	rep := db2.RecoveryReport()
	after, err := captureState(db2, sample)
	if err == nil {
		err = before.diff(after)
	}
	if err != nil {
		o.fail("recovered state: %v", err)
	}
	o.note("also recovery_s %.6f s (%d txns replayed, %d indexes rebuilt)", recovery.Seconds(), rep.ReplayedTxns, rep.RebuiltIndexes)
	o.metrics["wal.replayed_txns"] = float64(rep.ReplayedTxns)
	o.metrics["wal.replay_txn_per_s"] = float64(rep.ReplayedTxns) / recovery.Seconds()
	o.metrics["wal.recovery_peak_bytes"] = float64(db2.Stats().RecoveryPeakBytes)
	o.metrics["index.rebuilt"] = float64(rep.RebuiltIndexes)
	return nil
}

// histCap is the primary's replication history window (replHistCap):
// serve-replica warms past it so the whole timed interval is beyond it.
const (
	histCap    = 1 << 16
	probeEvery = 4 // serve-replica: one lag probe + replica aggregate per this many txns of the second client

	lagProbeLimit = time.Second
)

// runServeReplica runs a durable serving primary with an in-process
// memory replica. An embedded warm-up writer takes the primary past its
// history cap; then both clients run transfers over their own remote
// session, and client 2, every few txns, probes the replica's
// visibility lag and aggregates on it.
//
// The timed writers are remote because past the cap every commit shifts
// the whole history: an embedded writer commits back to back and turns
// the run into a memory-bandwidth test that swings with the other
// tenants of a shared machine. A remote writer pays the same shift per
// commit, between round trips.
func runServeReplica(cfg *runConfig) (*outcome, error) {
	o := newOutcome()
	rows := 1 << 18 >> cfg.scale
	o.env["strategy"], o.env["sync"], o.env["rows"], o.env["columns"] = "vmsnap", "none", rows, len(cols)
	o.env["replica"] = "memory, in-process"
	o.env["remote_sessions"] = 2
	var loads, boots []time.Duration
	var bootstraps uint64
	err := measureInstances(cfg, o, func(i int) (*instance, error) {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("primary%d", i))
		primary, err := ankerdb.Open(durableOpts(dir, ankerdb.WithServeAddr("127.0.0.1:0"),
			ankerdb.WithInitialSchema(tableSchema(false), rows))...)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		sums, err := loadTable(primary, rows, cfg.seed)
		loads = append(loads, time.Since(t0))
		if err == nil {
			err = primary.Checkpoint()
		}
		if err != nil {
			_ = primary.Close()
			return nil, err
		}
		t0 = time.Now()
		replica, err := ankerdb.Open(append(memOpts(), ankerdb.WithReplicaOf(primary.ServeAddr()))...)
		if err != nil {
			_ = primary.Close()
			return nil, fmt.Errorf("open replica: %w", err)
		}
		boots = append(boots, time.Since(t0))
		var sess []*ankerdb.RemoteSession
		closeAll := func() error {
			for _, s := range sess {
				_ = s.Close()
			}
			err := replica.Close()
			if perr := primary.Close(); err == nil {
				err = perr
			}
			_ = os.RemoveAll(dir)
			return err
		}
		for len(sess) < 2 {
			s, err := ankerdb.Dial(primary.ServeAddr(), "default")
			if err != nil {
				_ = closeAll()
				return nil, fmt.Errorf("dial: %w", err)
			}
			sess = append(sess, s)
		}
		chk := &sumChecker{want: sums, rows: int64(rows)}
		ops := 0
		in := &instance{
			dbs:     []*ankerdb.DB{primary, replica},
			clients: newClients(cfg.seed, i, rows, 1.1),
			fns: []func(*client){
				func(c *client) { c.transfer(sess[0]) },
				func(c *client) {
					c.transfer(sess[1])
					if ops++; ops%probeEvery == 0 {
						c.lagProbe(primary, replica)
						c.analyst(replica, chk.check)
					}
				},
			},
			finish: func(o *outcome, _ bool) error {
				bootstraps = replica.Stats().ReplicaBootstraps
				o.attempted++
				gap, err := converge(primary, replica)
				o.metrics["repl.final_gap_commits"] = max(o.metrics["repl.final_gap_commits"], float64(gap))
				if err != nil {
					o.fail("%v", err)
				} else {
					checkAllSums(o, replica, chk)
					checkAllSums(o, primary, chk)
				}
				return closeAll()
			},
		}
		// The warm-up ends past the history cap, with the replica caught
		// up, before timing starts.
		in.warm = func() error {
			embedded := func(c *client) { c.transfer(primary) }
			warm(in.clients, []func(*client){embedded, in.fns[1]}, []int{histCap + 4096, 64})
			_, err := converge(primary, replica)
			return err
		}
		return in, nil
	})
	o.note("also repl.bootstrap_s %.6f s", medianSeconds(boots))
	o.metrics["repl.bootstraps"] = float64(bootstraps)
	o.metrics["storage.load_s"] = medianSeconds(loads)
	fillBypassed(o.metrics)
	return o, err
}

// lagProbe measures how long the replica takes to make visible the
// newest commit completed on the primary when the probe starts. Lag is
// a measurement, not a failure: a probe gives up after lagProbeLimit
// and records the limit (the final catch-up check still requires the
// replica to converge once writes stop).
func (c *client) lagProbe(primary, replica *ankerdb.DB) {
	target := primary.Stats().CompletedCommitTS
	t0 := time.Now()
	for replica.Stats().CompletedCommitTS < target && time.Since(t0) < lagProbeLimit {
		// Sleeping, not spinning: on two CPUs a spinning poller would
		// take the CPU the replica needs to apply the stream.
		time.Sleep(20 * time.Microsecond)
	}
	t := c.w()
	t.lagLat = append(t.lagLat, time.Since(t0).Nanoseconds())
	t.lagCommitsMax = max(t.lagCommitsMax, primary.Stats().MaxReplicaLag)
}

// converge waits, once writes have stopped, until every column the
// replica serves equals the primary's, and returns how many commit
// timestamps the replica's CompletedCommitTS still trails the
// primary's. Data, not timestamps, decide convergence: a stamped
// commit that fails validation advances the primary's watermark
// without a record to replicate, so the replica's watermark can stay
// behind while its data is identical. The gap is reported, not failed.
func converge(primary, replica *ankerdb.DB) (uint64, error) {
	t0 := time.Now()
	for {
		want, err := scanAll(primary)
		if err != nil {
			return 0, fmt.Errorf("scan primary: %w", err)
		}
		got, err := scanAll(replica)
		if err != nil {
			return 0, fmt.Errorf("scan replica: %w", err)
		}
		if slices.EqualFunc(want, got, slices.Equal[[]int64]) {
			p, r := primary.Stats().CompletedCommitTS, replica.Stats().CompletedCommitTS
			return p - min(p, r), nil
		}
		if time.Since(t0) > 60*time.Second {
			return 0, fmt.Errorf("replica data differs from the primary's 60s after writes stopped (replica at commit %d, primary at %d)",
				replica.Stats().CompletedCommitTS, primary.Stats().CompletedCommitTS)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// scanAll reads every column on one snapshot of db.
func scanAll(db *ankerdb.DB) ([][]int64, error) {
	txn, err := db.Begin(ankerdb.OLAP)
	if err != nil {
		return nil, err
	}
	defer txn.Commit()
	out := make([][]int64, len(cols))
	for k, col := range cols {
		if out[k], err = txn.Scan(table, col); err != nil {
			return nil, err
		}
	}
	return out, nil
}
