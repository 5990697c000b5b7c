package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"ankerdb"
)

const table = "t"

var cols = []string{"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"}

// client is one closed-loop client goroutine and what it measured.
type client struct {
	id   int
	rnd  *rand.Rand
	zipf *rand.Zipf
	tr   *clientTrace // nil outside a traced phase
	col  int          // next analyst column

	// Measurements of the current phase, one tally per window.
	wins     []tally
	winStart time.Time
	winLen   time.Duration

	// Kept across phases.
	attempted, failed int64
	failures          []string
}

// newClients returns the two clients of one instance of a run, each
// drawing zipf(zipfS) rows from its own seeded stream.
func newClients(seed int64, instance, rows int, zipfS float64) []*client {
	cs := make([]*client, 2)
	for id := range cs {
		rnd := rand.New(rand.NewSource(seed*1_000_003 + int64(instance)*31 + int64(id)))
		cs[id] = &client{id: id, rnd: rnd, zipf: rand.NewZipf(rnd, zipfS, 1, uint64(rows-1))}
	}
	return cs
}

// w returns the tally of the window the current time falls in.
func (c *client) w() *tally {
	if len(c.wins) == 0 { // outside a timed phase: one open-ended window
		c.wins, c.winStart, c.winLen = make([]tally, 1), time.Now(), time.Duration(1<<62)
	}
	i := int(time.Since(c.winStart) / c.winLen)
	return &c.wins[min(max(i, 0), len(c.wins)-1)]
}

// tally is what one client measured in one window of a phase.
type tally struct {
	txnLat, queryLat, lagLat []int64 // ns
	committed, aborted       int64   // OLTP txns
	queries                  int64
	staleSum                 uint64
	blocks, rowsScanned      int64
	lagCommitsMax            uint64
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 4 {
		c.failures = append(c.failures, fmt.Sprintf("client %d: ", c.id)+fmt.Sprintf(format, args...))
	}
}

// twoRows draws two distinct zipfian rows.
func (c *client) twoRows() (int, int) {
	r1 := int(c.zipf.Uint64())
	for {
		if r2 := int(c.zipf.Uint64()); r2 != r1 {
			return r1, r2
		}
	}
}

// transfer moves an amount between two zipfian rows of one column, so
// every column's sum is conserved. Over a remote session each span is a
// round trip to the serving primary.
func (c *client) transfer(s ankerdb.Session) {
	col := cols[c.rnd.Intn(len(cols))]
	r1, r2 := c.twoRows()
	amt := 1 + c.rnd.Int63n(100)
	c.attempted++
	t0 := time.Now()
	sp := c.tr.start(kTxn)
	defer c.tr.end(sp)

	b := c.tr.start(kBegin)
	txn, err := s.BeginTxn(ankerdb.OLTP)
	c.tr.end(b)
	if err != nil {
		c.fail("begin: %v", err)
		return
	}
	var v [2]int64
	for i, r := range [2]int{r1, r2} {
		g := c.tr.start(kStage)
		v[i], err = txn.Get(table, col, r)
		c.tr.end(g)
		if err != nil {
			_ = txn.Abort()
			c.fail("get %s[%d]: %v", col, r, err)
			return
		}
	}
	for i, nv := range [2]int64{v[0] - amt, v[1] + amt} {
		g := c.tr.start(kStage)
		err = txn.Set(table, col, [2]int{r1, r2}[i], nv)
		c.tr.end(g)
		if err != nil {
			_ = txn.Abort()
			c.fail("set %s: %v", col, err)
			return
		}
	}
	cs := c.tr.start(kCommit)
	err = txn.Commit()
	c.tr.end(cs)
	c.noteCommit(err, time.Since(t0).Nanoseconds())
}

func (c *client) noteCommit(err error, lat int64) {
	t := c.w()
	switch {
	case err == nil:
		t.committed++
		t.txnLat = append(t.txnLat, lat)
	case errors.Is(err, ankerdb.ErrConflict):
		t.aborted++
		t.txnLat = append(t.txnLat, lat)
	default:
		c.fail("commit: %v", err)
	}
}

// analyst runs one aggregate over a snapshot of db: the column sum and
// the visible row count, handed to check. Columns cycle per client.
func (c *client) analyst(db *ankerdb.DB, check func(col int, sum, count int64) error) {
	k := c.col % len(cols)
	c.col++
	col := cols[k]
	c.attempted++
	t0 := time.Now()
	sp := c.tr.start(kQuery)
	defer c.tr.end(sp)

	p := c.tr.start(kPin)
	txn, err := db.Begin(ankerdb.OLAP)
	c.tr.end(p)
	if err != nil {
		c.fail("begin olap: %v", err)
		return
	}
	if c.tr != nil {
		// Traced runs touch the column once before Run, so the snapshot
		// the query would create lazily is created here, in its own span.
		g := c.tr.start(kCapture)
		_, err = txn.Get(table, col, 0)
		c.tr.end(g)
		if err != nil {
			_ = txn.Abort()
			c.fail("capture %s: %v", col, err)
			return
		}
	}
	r := c.tr.start(kRun)
	res, err := txn.Query(table).Aggregate(ankerdb.SumOf(col), ankerdb.CountRows()).Morsels(1).Run()
	c.tr.end(r)
	if err != nil {
		_ = txn.Abort()
		c.fail("query %s: %v", col, err)
		return
	}
	stale := txn.Staleness()
	rel := c.tr.start(kRelease)
	err = txn.Commit()
	c.tr.end(rel)
	if err != nil {
		c.fail("release: %v", err)
		return
	}
	t := c.w()
	t.queryLat = append(t.queryLat, time.Since(t0).Nanoseconds())
	t.queries++
	t.staleSum += stale
	t.blocks += res.Stats.BlocksScanned
	t.rowsScanned += res.Stats.RowsScanned
	if err := check(k, res.At(0, 0), res.At(0, 1)); err != nil {
		c.fail("%v", err)
	}
}

// sumChecker holds each column's conserved sum and the table's row
// count: every aggregate over a transfer-only table must match them.
type sumChecker struct {
	want []int64
	rows int64
}

func (k *sumChecker) check(col int, sum, count int64) error {
	if sum != k.want[col] || count != k.rows {
		return fmt.Errorf("aggregate over %s = (sum %d, count %d), want (sum %d, count %d)",
			cols[col], sum, count, k.want[col], k.rows)
	}
	return nil
}

// loadTable fills every column with seeded values in [0, 1000) and
// returns each column's sum.
func loadTable(db *ankerdb.DB, rows int, seed int64) ([]int64, error) {
	rnd := rand.New(rand.NewSource(seed))
	vals := make([]int64, rows)
	sums := make([]int64, len(cols))
	for k, col := range cols {
		for i := range vals {
			vals[i] = rnd.Int63n(1000)
			sums[k] += vals[i]
		}
		if err := db.Load(table, col, vals); err != nil {
			return nil, fmt.Errorf("load %s: %w", col, err)
		}
	}
	return sums, nil
}

func tableSchema(index bool) ankerdb.Schema {
	s := ankerdb.Schema{Table: table}
	for i, c := range cols {
		d := ankerdb.ColumnDef{Name: c, Type: ankerdb.Int64}
		if index && i == 0 {
			d.Index = ankerdb.Hash
		}
		s.Columns = append(s.Columns, d)
	}
	return s
}

// runClients runs one goroutine per client, each calling its fn until
// done says stop, and waits for all of them.
func runClients(clients []*client, fns []func(*client), done func(c *client, ops int) bool) {
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, fn func(*client)) {
			defer wg.Done()
			for ops := 0; !done(c, ops); ops++ {
				fn(c)
			}
		}(c, fns[i])
	}
	wg.Wait()
}

// warmOps is an instance's warm-up: each client runs its own fn for a
// fixed number of ops.
func warmOps(in *instance, ops ...int) error {
	warm(in.clients, in.fns, ops)
	return nil
}

// warm runs each client fn for a fixed number of ops; what they
// measured is discarded.
func warm(clients []*client, fns []func(*client), ops []int) {
	for _, c := range clients {
		c.wins = nil
	}
	runClients(clients, fns, func(c *client, n int) bool { return n >= ops[c.id] })
}

// phase is one timed interval: the clients' samples plus the engine
// and runtime counters around it.
type phase struct {
	wall          time.Duration
	tallies       []tally   // per client, over the whole phase
	windows       [][]tally // per window, per client
	traces        []*clientTrace
	before, after counters
	mem0, mem1    runtime.MemStats
	heapPeak      uint64
}

// measure runs every client fn for d against dbs and returns the phase,
// its samples split into equal windows by completion time.
func measure(dbs []*ankerdb.DB, clients []*client, fns []func(*client), d time.Duration, windows int, traced bool) *phase {
	ph := &phase{}
	epoch := time.Now()
	for _, c := range clients {
		c.wins = make([]tally, windows)
		c.winLen = d / time.Duration(windows)
		c.tr = nil
		if traced {
			c.tr = newClientTrace(epoch)
		}
		ph.traces = append(ph.traces, c.tr)
	}
	runtime.GC()
	ph.before = snapCounters(dbs)
	runtime.ReadMemStats(&ph.mem0)

	stop := make(chan struct{})
	sampled := make(chan uint64)
	go func() {
		var ms runtime.MemStats
		var peak uint64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapInuse)
			select {
			case <-stop:
				sampled <- peak
				return
			case <-tick.C:
			}
		}
	}()

	t0 := time.Now()
	deadline := t0.Add(d)
	for _, c := range clients {
		c.winStart = t0
	}
	runClients(clients, fns, func(*client, int) bool { return time.Now().After(deadline) })
	ph.wall = time.Since(t0)
	close(stop)
	ph.heapPeak = <-sampled

	ph.after = snapCounters(dbs)
	runtime.ReadMemStats(&ph.mem1)
	ph.windows = make([][]tally, windows)
	for _, c := range clients {
		var all tally
		for i, t := range c.wins {
			ph.windows[i] = append(ph.windows[i], t)
			all.add(t)
		}
		ph.tallies = append(ph.tallies, all)
		c.tr = nil
	}
	return ph
}

func (a *tally) add(b tally) {
	a.txnLat = append(a.txnLat, b.txnLat...)
	a.queryLat = append(a.queryLat, b.queryLat...)
	a.lagLat = append(a.lagLat, b.lagLat...)
	a.committed += b.committed
	a.aborted += b.aborted
	a.queries += b.queries
	a.staleSum += b.staleSum
	a.blocks += b.blocks
	a.rowsScanned += b.rowsScanned
	a.lagCommitsMax = max(a.lagCommitsMax, b.lagCommitsMax)
}

func (ph *phase) sum(f func(t *tally) int64) int64 {
	var n int64
	for i := range ph.tallies {
		n += f(&ph.tallies[i])
	}
	return n
}

func (ph *phase) samples(f func(t *tally) []int64) []int64 {
	var all []int64
	for i := range ph.tallies {
		all = append(all, f(&ph.tallies[i])...)
	}
	return sortedCopy(all)
}

// mergePhases joins the phases of a run's instances: their windows and
// tallies side by side, the median of their heap peaks.
func mergePhases(phases []*phase) *phase {
	m := &phase{}
	var peaks []float64
	for _, p := range phases {
		m.wall += p.wall
		m.windows = append(m.windows, p.windows...)
		m.tallies = append(m.tallies, p.tallies...)
		peaks = append(peaks, float64(p.heapPeak))
	}
	m.heapPeak = uint64(median(peaks))
	return m
}

// endToEnd fills the end-to-end metrics every workload reports. Each
// is computed per window and reported as the median over the windows,
// so a stall in one window (CPU steal on a shared host comes in bursts
// of seconds) does not move the run's figure. A window holds 30 to 70
// queries, so its query p95 has two to four samples beyond it; the
// run's query p95 is the median over 12 windows, 20 to 40 beyond.
func (ph *phase) endToEnd(m map[string]float64) {
	secs := ph.wall.Seconds() / float64(len(ph.windows))
	per := map[string][]float64{}
	for _, w := range ph.windows {
		win := &phase{tallies: w}
		txns := win.samples(func(t *tally) []int64 { return t.txnLat })
		qs := win.samples(func(t *tally) []int64 { return t.queryLat })
		per["txn_per_s"] = append(per["txn_per_s"], float64(win.sum(func(t *tally) int64 { return t.committed }))/secs)
		per["query_per_s"] = append(per["query_per_s"], float64(win.sum(func(t *tally) int64 { return t.queries }))/secs)
		if len(txns) > 0 {
			per["txn_p50_us"] = append(per["txn_p50_us"], percentile(txns, 0.50)/1e3)
			per["txn_p99_us"] = append(per["txn_p99_us"], percentile(txns, 0.99)/1e3)
		}
		if len(qs) > 0 {
			per["query_p50_ms"] = append(per["query_p50_ms"], percentile(qs, 0.50)/1e6)
			per["query_p95_ms"] = append(per["query_p95_ms"], percentile(qs, 0.95)/1e6)
		}
	}
	for k, vs := range per {
		m[k] = median(vs)
	}
	m["heap_peak_mb"] = float64(ph.heapPeak) / 1e6
}

// perLayer fills the per-layer metrics of a traced phase; ref is the
// untraced phase run just before it on the same database.
func (ph *phase) perLayer(m map[string]float64, ref *phase) {
	secs := ph.wall.Seconds()
	tt := mergeTraces(ph.traces)
	d := ph.after.sub(ph.before)

	txns := float64(ph.sum(func(t *tally) int64 { return t.committed + t.aborted }))
	aborted := float64(ph.sum(func(t *tally) int64 { return t.aborted }))
	queries := float64(ph.sum(func(t *tally) int64 { return t.queries }))

	m["txn.begin_us"] = tt.meanUs(kBegin, kTxn)
	m["txn.stage_us"] = tt.meanUs(kStage, kTxn)
	cd := sortedCopy(tt.commitDur)
	m["commit.call_p50_us"] = percentile(cd, 0.50) / 1e3
	m["commit.call_p99_us"] = percentile(cd, 0.99) / 1e3
	m["commit.validate_us"] = d.validate.meanUs()
	m["commit.install_us"] = d.install.meanUs()
	m["commit.lock_wait_ms_per_s"] = float64(d.lockWait.ns) / 1e6 / secs
	m["commit.batch_size"] = ratio(float64(d.commits), float64(d.batches))
	m["commit.abort_pct"] = 100 * ratio(aborted, txns)

	m["snapshot.pin_us"] = tt.meanUs(kPin, kQuery)
	m["snapshot.capture_us"] = tt.meanUs(kCapture, kQuery)
	m["snapshot.create_us"] = d.snapCreate.meanUs()
	m["snapshot.release_us"] = tt.meanUs(kRelease, kQuery)
	m["snapshot.per_query"] = ratio(float64(d.snapshots), queries)
	m["snapshot.staleness_commits"] = ratio(float64(ph.sum(func(t *tally) int64 { return int64(t.staleSum) })), queries)

	vm := d.vm
	m["vmem.cow_breaks_per_query"] = ratio(float64(vm.COWBreaks), queries)
	m["vmem.words_copied_per_txn"] = ratio(float64(vm.WordsCopied), txns)
	m["vmem.pte_copies_per_snapshot"] = ratio(float64(vm.PTECopies), float64(vm.VMSnapshots))
	m["vmem.syscalls_per_query"] = ratio(float64(vm.Syscalls), queries)
	m["vmem.sim_kernel_ms_per_s"] = simKernel(vm).Seconds() * 1e3 / secs

	m["query.run_ms"] = tt.meanUs(kRun, kQuery) / 1e3
	m["query.blocks_scanned"] = ratio(float64(ph.sum(func(t *tally) int64 { return t.blocks })), queries)
	m["query.rows_per_s"] = ratio(float64(ph.sum(func(t *tally) int64 { return t.rowsScanned })), float64(tt.durNs[kRun])/1e9)

	m["index.raw_per_live"] = ratio(float64(ph.after.indexRaw), float64(ph.after.indexLive))
	m["wal.append_ms_per_s"] = float64(d.fsync.ns) / 1e6 / secs
	m["wal.bytes_per_txn"] = ratio(float64(d.walBytes), float64(d.commits))
	m["wal.checkpoints"] = float64(d.checkpoints)
	m["wal.checkpoint_ms_per_s"] = float64(d.checkpoint.ns) / 1e6 / secs

	m["repl.frames_per_commit"] = ratio(float64(d.frames), float64(d.commits))
	m["repl.subscriber_drops"] = float64(d.drops)
	var lagMax uint64
	for _, t := range ph.tallies {
		lagMax = max(lagMax, t.lagCommitsMax)
	}
	m["repl.lag_commits_max"] = float64(lagMax)

	m["storage.capacity_rows"] = float64(ph.after.capacity)
	m["storage.rows_free"] = float64(ph.after.rowsFree)
	m["runtime.allocs_per_txn"] = ratio(float64(ph.mem1.Mallocs-ph.mem0.Mallocs), txns)
	m["runtime.gc_cycles"] = float64(ph.mem1.NumGC - ph.mem0.NumGC)

	// A root's self time is the part of its request no engine call covers.
	m["other.txn_us"] = float64(tt.selfNs[kTxn]) / float64(max(tt.n[kTxn], 1)) / 1e3
	m["other.query_us"] = float64(tt.selfNs[kQuery]) / float64(max(tt.n[kQuery], 1)) / 1e3

	refTxn := ref.samples(func(t *tally) []int64 { return t.txnLat })
	curTxn := ph.samples(func(t *tally) []int64 { return t.txnLat })
	m["trace.overhead_pct"] = 100 * (ratio(percentile(curTxn, 0.5), percentile(refTxn, 0.5)) - 1)
}

// selfTimeLines renders each request type's self time per layer; the
// layers plus "other" add up to the root span exactly.
func (ph *phase) selfTimeLines() []string {
	tt := mergeTraces(ph.traces)
	var out []string
	for _, r := range []struct {
		root  spanKind
		kinds []spanKind
	}{
		{kTxn, []spanKind{kBegin, kStage, kCommit}},
		{kQuery, []spanKind{kPin, kCapture, kRun, kRelease}},
	} {
		if tt.n[r.root] == 0 {
			continue
		}
		by := tt.selfByLayer(r.root, r.kinds...)
		line := fmt.Sprintf("self-time %-10s n=%-8d root=%.3fus:", kindInfo[r.root].name, tt.n[r.root],
			float64(tt.durNs[r.root])/float64(tt.n[r.root])/1e3)
		var sum float64
		for _, l := range []string{"txn", "commit", "snapshot", "query", "repl", "other"} {
			if v, ok := by[l]; ok {
				line += fmt.Sprintf(" %s=%.3fus", l, v)
				sum += v
			}
		}
		out = append(out, line+fmt.Sprintf(" (layers sum %.3fus)", sum))
	}
	out = append(out, fmt.Sprintf("self-time requests whose layers missed their root span: %d", tt.mismatch))
	return out
}

// simKernel prices the simulated kernel's counters with DefaultCost: the
// busy-wait the cost model charged, reported apart from real work. VMA
// operations the counters do not see (mmap insert, mprotect, unmap)
// are not included.
func simKernel(vm ankerdb.VMStats) time.Duration {
	c := ankerdb.DefaultCost
	return time.Duration(vm.Syscalls)*c.SyscallEntry +
		time.Duration(vm.VMASplits+vm.VMAMerges+vm.VMACopies)*c.VMAOp +
		time.Duration(vm.MinorFaults+vm.COWBreaks)*c.PageFault +
		time.Duration(vm.SignalHooks)*c.SignalDelivery
}

// hist is a latency histogram's count and total.
type hist struct{ n, ns uint64 }

func (h hist) meanUs() float64 { return ratio(float64(h.ns), float64(h.n)) / 1e3 }

// counters sums the Stats fields the metrics use over several DBs (a
// primary and its replica). sub turns cumulative fields into deltas and
// keeps levels (index entries, capacity, free rows) from the receiver.
type counters struct {
	commits, batches                                           uint64
	validate, install, lockWait, fsync, snapCreate, checkpoint hist
	snapshots, walBytes, checkpoints, frames, drops            uint64
	vm                                                         ankerdb.VMStats
	indexLive, indexRaw                                        int64
	capacity, rowsFree                                         int
}

func snapCounters(dbs []*ankerdb.DB) counters {
	var c counters
	add := func(a *hist, h ankerdb.Hist) { a.n += h.Count; a.ns += h.SumNanos }
	for _, db := range dbs {
		s := db.Stats()
		c.commits += s.Commits
		c.batches += s.CommitBatches
		add(&c.validate, s.CommitValidateHist)
		add(&c.install, s.CommitInstallHist)
		add(&c.lockWait, s.CommitLockWaitHist)
		add(&c.fsync, s.CommitFsyncHist)
		add(&c.snapCreate, s.SnapshotCreateHist)
		add(&c.checkpoint, s.CheckpointHist)
		c.snapshots += s.SnapshotsCreated
		c.walBytes += s.WALBytes
		c.checkpoints += s.CheckpointCount
		c.frames += s.ReplFramesStreamed
		c.drops += s.ReplSubscriberDrop
		c.vm = addVM(c.vm, s.VM, 1)
		c.indexLive += s.IndexEntries
		c.indexRaw += s.IndexEntriesRaw
		c.capacity += s.TableCapacity
		c.rowsFree += s.RowsFree
	}
	return c
}

func (a counters) sub(b counters) counters {
	dh := func(x, y hist) hist { return hist{x.n - y.n, x.ns - y.ns} }
	d := a
	d.commits -= b.commits
	d.batches -= b.batches
	d.validate, d.install, d.lockWait = dh(a.validate, b.validate), dh(a.install, b.install), dh(a.lockWait, b.lockWait)
	d.fsync, d.snapCreate, d.checkpoint = dh(a.fsync, b.fsync), dh(a.snapCreate, b.snapCreate), dh(a.checkpoint, b.checkpoint)
	d.snapshots -= b.snapshots
	d.walBytes -= b.walBytes
	d.checkpoints -= b.checkpoints
	d.frames -= b.frames
	d.drops -= b.drops
	d.vm = addVM(a.vm, b.vm, -1)
	return d
}

// addVM returns a + sign*b field by field.
func addVM(a, b ankerdb.VMStats, sign int) ankerdb.VMStats {
	f := func(x, y uint64) uint64 {
		if sign < 0 {
			return x - y
		}
		return x + y
	}
	return ankerdb.VMStats{
		Syscalls: f(a.Syscalls, b.Syscalls), Mmaps: f(a.Mmaps, b.Mmaps), Munmaps: f(a.Munmaps, b.Munmaps),
		Mprotects: f(a.Mprotects, b.Mprotects), Forks: f(a.Forks, b.Forks), VMSnapshots: f(a.VMSnapshots, b.VMSnapshots),
		MinorFaults: f(a.MinorFaults, b.MinorFaults), COWBreaks: f(a.COWBreaks, b.COWBreaks), SignalHooks: f(a.SignalHooks, b.SignalHooks),
		VMASplits: f(a.VMASplits, b.VMASplits), VMAMerges: f(a.VMAMerges, b.VMAMerges), VMACopies: f(a.VMACopies, b.VMACopies),
		PTECopies: f(a.PTECopies, b.PTECopies), WordsCopied: f(a.WordsCopied, b.WordsCopied),
	}
}

// collectFailures folds the clients' failures into the outcome.
func collectFailures(o *outcome, clients []*client) {
	for _, c := range clients {
		o.attempted += c.attempted
		o.failed += c.failed
		for _, f := range c.failures {
			if len(o.checkFailures) < 8 {
				o.checkFailures = append(o.checkFailures, f)
			}
		}
	}
}
