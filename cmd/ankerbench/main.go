// Command ankerbench drives the public ankerdb facade end-to-end to
// reproduce the paper's experiments:
//
//   - "create": snapshot creation latency per strategy as the number of
//     touched columns grows (Table 1 / Figure 5a). Fine-granular
//     strategies pay per column; fork pays for the whole process image
//     on every touched column.
//   - "write": write-after-snapshot cost (Figure 5b): kernel COW
//     (fork/vmsnap) versus manual user-space COW (rewiring) versus
//     nothing to do (physical).
//   - "mixed": concurrent OLTP writers against OLAP scanners, the
//     workload of Section 5, reporting throughput, aborts, snapshot
//     staleness and COW traffic.
//   - "commit": the Figure 11 scaling experiment: OLTP commit
//     throughput as the writer count grows, swept across commit shard
//     counts. shards=1 is the paper's serialized commit phase; higher
//     shard counts engage the sharded group-commit pipeline.
//   - "query": streaming-engine throughput for a filtered group-by
//     aggregate over a pinned snapshot, swept across predicate
//     selectivity and morsel parallelism per strategy — the zone-map
//     pruning and morsel-scaling experiment.
//   - "index": secondary-index probe speedup: 0.1%-selective point
//     lookups and 1%-selective ranges through the hash and ordered
//     indexes against the same queries forced down the scan path
//     (WithoutPruning), per strategy. The values cycle per block, so
//     zone maps cannot help the scan — the speedup is the index alone.
//   - "durability": commit throughput with the write-ahead log
//     enabled, swept across sync policies (none, groupOnly, always)
//     and commit shard counts, plus crash-recovery replay time and
//     snapshot-driven checkpoint latency per configuration.
//   - "replication": a WAL-streaming read replica attached to a
//     durable serving primary: replica lag (in commits) versus write
//     rate (writer count) across commit shard counts, replica-side
//     OLAP read throughput while the stream is live, and the
//     catch-up time from the last primary commit to full convergence.
//
// All benchmarks go exclusively through the public API, so the numbers
// include the full commit pipeline and snapshot lifecycle.
//
// Output formats (-format): "text" prints human-readable tables;
// "csv" and "json" emit one flat record per measured metric
// (bench, strategy, shards, writers, scanners, touch, metric, value),
// the machine-readable format the CI bench artifact and the
// paper-figure tables share. Every run also emits "env" records
// (gomaxprocs, numcpu): on a 1-CPU runner the shard sweep cannot show
// wall-clock speedup, and artifacts must say so.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ankerdb"
	"ankerdb/internal/workload"
)

var (
	flagBench      = flag.String("bench", "create,write,mixed,commit,grow,durability,recovery,query,index,replication", "comma-separated benchmarks to run: create, write, mixed, commit, grow, durability, recovery, query, index, replication")
	flagStrategies = flag.String("strategies", "physical,fork,rewired,vmsnap", "comma-separated snapshot strategies")
	flagRows       = flag.Int("rows", 1<<16, "rows per column")
	flagCols       = flag.Int("cols", 8, "columns per table")
	flagWrites     = flag.Int("writes", 4096, "rows written after the snapshot (write benchmark)")
	flagWriters    = flag.Int("writers", 8, "concurrent OLTP writers (mixed benchmark; upper bound of the commit sweep)")
	flagScanners   = flag.Int("scanners", 2, "concurrent OLAP scanners (mixed benchmark)")
	flagMix        = flag.String("mix", "uniform,ycsb-a,ycsb-b,tpcc", "comma-separated mixed-benchmark writer profiles: uniform, ycsb-a, ycsb-b, tpcc")
	flagRefresh    = flag.Int("refresh", 16, "snapshot refresh interval in commits (mixed benchmark)")
	flagShards     = flag.String("shards", "1,0", "comma-separated commit shard counts for the commit and durability sweeps (0 = GOMAXPROCS)")
	flagSync       = flag.String("sync", "none,groupOnly,always", "comma-separated WAL sync policies for the durability sweep")
	flagDurDir     = flag.String("durdir", "", "durability directory root (default: a temp dir, removed afterwards)")
	flagDur        = flag.Duration("dur", 2*time.Second, "duration per configuration (mixed, commit and durability benchmarks)")
	flagZeroCost   = flag.Bool("zerocost", false, "disable the simulated kernel cost model")
	flagFormat     = flag.String("format", "text", "output format: text, csv, json")
	flagQuick      = flag.Bool("quick", false, "CI smoke preset: small columns, short durations")
	flagStats      = flag.String("stats", "", "write each benchmark's final engine Stats snapshot (histograms included) plus derived metrics as JSON to this path")
)

// statsDump collects, per benchmark, the Stats snapshot of the last
// configuration it measured, written as JSON by -stats so trajectory
// tooling can pick up zone-skip% and commit-phase tail latencies
// without re-parsing the flat record stream.
var statsDump = map[string]statsEntry{}

type statsEntry struct {
	Stats   ankerdb.Stats      `json:"stats"`
	Derived map[string]float64 `json:"derived"`
}

// captureStats derives the headline observability numbers from a
// benchmark's final Stats snapshot and retains both for -stats.
func captureStats(bench string, s ankerdb.Stats) {
	if *flagStats == "" {
		return
	}
	d := map[string]float64{
		"commit_validate_p99_ns":  float64(s.CommitValidateHist.Quantile(0.99).Nanoseconds()),
		"commit_install_p99_ns":   float64(s.CommitInstallHist.Quantile(0.99).Nanoseconds()),
		"commit_fsync_p99_ns":     float64(s.CommitFsyncHist.Quantile(0.99).Nanoseconds()),
		"commit_lock_wait_p99_ns": float64(s.CommitLockWaitHist.Quantile(0.99).Nanoseconds()),
		"snapshot_create_p99_ns":  float64(s.SnapshotCreateHist.Quantile(0.99).Nanoseconds()),
		"query_exec_p99_ns":       float64(s.QueryExecHist.Quantile(0.99).Nanoseconds()),
	}
	if total := s.ZoneMapScannedChunks + s.ZoneMapSkippedChunks; total > 0 {
		d["zone_skip_pct"] = 100 * float64(s.ZoneMapSkippedChunks) / float64(total)
	}
	if n := s.GroupCommitSize.Observations(); n > 0 {
		d["mean_batch_size"] = float64(s.Commits+s.Conflicts) / float64(n)
	}
	statsDump[bench] = statsEntry{Stats: s, Derived: d}
}

// writeStatsDump writes the collected snapshots to -stats.
func writeStatsDump(path string) {
	f, err := os.Create(path)
	if err != nil {
		fail("stats: %v", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(statsDump); err != nil {
		fail("stats: %v", err)
	}
	if err := f.Close(); err != nil {
		fail("stats: %v", err)
	}
}

// record is one measured metric in the flat schema shared by the CSV
// and JSON outputs. Shards, Writers, Scanners and Touch are -1 when the
// dimension does not apply to the benchmark.
type record struct {
	Bench    string  `json:"bench"`
	Mix      string  `json:"mix,omitempty"`
	Strategy string  `json:"strategy"`
	Shards   int     `json:"shards"`
	Writers  int     `json:"writers"`
	Scanners int     `json:"scanners"`
	Touch    int     `json:"touch"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
}

var records []record

func emit(r record) { records = append(records, r) }

// metric is one (name, value) measurement. Benchmarks emit fixed-order
// metric slices — never maps — so the CSV/JSON artifacts are
// byte-reproducible across runs and diffable per commit.
type metric struct {
	name  string
	value float64
}

func emitAll(base record, ms []metric) {
	for _, m := range ms {
		rec := base
		rec.Metric, rec.Value = m.name, m.value
		emit(rec)
	}
}

// textf prints to stdout only in text mode, keeping tables out of the
// machine-readable outputs.
func textf(format string, args ...any) {
	if *flagFormat == "text" {
		fmt.Printf(format, args...)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ankerbench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	flag.Parse()
	switch *flagFormat {
	case "text", "csv", "json":
	default:
		fail("unknown format %q (want text, csv or json)", *flagFormat)
	}
	if *flagQuick {
		// CI smoke preset; flags passed explicitly still win.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["rows"] {
			*flagRows = 4096
		}
		if !set["writes"] {
			*flagWrites = 1024
		}
		if !set["dur"] {
			*flagDur = 300 * time.Millisecond
		}
		if !set["zerocost"] {
			*flagZeroCost = true
		}
	}
	var strats []ankerdb.SnapshotStrategy
	for _, s := range strings.Split(*flagStrategies, ",") {
		strats = append(strats, ankerdb.SnapshotStrategy(strings.TrimSpace(s)))
	}
	benches := map[string]bool{}
	for _, b := range strings.Split(*flagBench, ",") {
		benches[strings.TrimSpace(b)] = true
	}
	emitEnv()
	if (benches["commit"] || benches["durability"]) && runtime.GOMAXPROCS(0) == 1 {
		fmt.Fprintln(os.Stderr, "ankerbench: warning: GOMAXPROCS=1 — shard sweeps cannot"+
			" show wall-clock speedup on one CPU; their artifact numbers understate multi-core scaling")
	}
	if benches["create"] {
		benchCreate(strats)
	}
	if benches["write"] {
		benchWrite(strats)
	}
	if benches["mixed"] {
		benchMixed(strats)
	}
	if benches["commit"] {
		benchCommit()
	}
	if benches["grow"] {
		benchGrow(strats)
	}
	if benches["durability"] {
		benchDurability()
	}
	if benches["recovery"] {
		benchRecovery()
	}
	if benches["query"] {
		benchQuery(strats)
	}
	if benches["index"] {
		benchIndex(strats)
	}
	if benches["replication"] {
		benchReplication()
	}
	if *flagStats != "" {
		writeStatsDump(*flagStats)
	}
	flush()
}

// emitEnv records the execution environment in every machine-readable
// artifact: shard-sweep results are meaningless without knowing how
// many CPUs the run actually had.
func emitEnv() {
	textf("== environment: GOMAXPROCS=%d NumCPU=%d ==\n\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
	base := record{Bench: "env", Strategy: "", Shards: -1, Writers: -1, Scanners: -1, Touch: -1}
	emitAll(base, []metric{
		{"gomaxprocs", float64(runtime.GOMAXPROCS(0))},
		{"numcpu", float64(runtime.NumCPU())},
	})
}

// flush writes the collected records in the selected machine-readable
// format. Text mode has already printed its tables.
func flush() {
	switch *flagFormat {
	case "text":
	case "csv":
		w := csv.NewWriter(os.Stdout)
		writeRow := func(fields ...string) {
			if err := w.Write(fields); err != nil {
				fail("csv: %v", err)
			}
		}
		writeRow("bench", "mix", "strategy", "shards", "writers", "scanners", "touch", "metric", "value")
		for _, r := range records {
			writeRow(r.Bench, r.Mix, r.Strategy,
				dimStr(r.Shards), dimStr(r.Writers), dimStr(r.Scanners), dimStr(r.Touch),
				r.Metric, strconv.FormatFloat(r.Value, 'g', -1, 64))
		}
		w.Flush()
		if err := w.Error(); err != nil {
			fail("csv: %v", err)
		}
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fail("json: %v", err)
		}
	default:
		fail("unknown format %q (want text, csv or json)", *flagFormat)
	}
}

// dimStr renders a benchmark dimension, empty when it does not apply.
func dimStr(v int) string {
	if v < 0 {
		return ""
	}
	return strconv.Itoa(v)
}

func costModel() ankerdb.CostModel {
	if *flagZeroCost {
		return ankerdb.ZeroCost
	}
	return ankerdb.DefaultCost
}

// openLoaded opens a DB with one table of cols columns, bulk-loaded.
func openLoaded(strat ankerdb.SnapshotStrategy, cols int, extra ...ankerdb.Option) *ankerdb.DB {
	schema := ankerdb.Schema{Table: "bench"}
	for c := 0; c < cols; c++ {
		schema.Columns = append(schema.Columns,
			ankerdb.ColumnDef{Name: colName(c), Type: ankerdb.Int64})
	}
	db, err := ankerdb.Open(append([]ankerdb.Option{
		ankerdb.WithSnapshotStrategy(strat),
		ankerdb.WithCostModel(costModel()),
		ankerdb.WithInitialSchema(schema, *flagRows),
	}, extra...)...)
	if err != nil {
		fail("open %s: %v", strat, err)
	}
	vals := make([]int64, *flagRows)
	for i := range vals {
		vals[i] = int64(i % 1000)
	}
	for c := 0; c < cols; c++ {
		if err := db.Load("bench", colName(c), vals); err != nil {
			fail("load: %v", err)
		}
	}
	return db
}

func colName(i int) string { return fmt.Sprintf("c%d", i) }

// benchCreate measures snapshot creation latency versus the number of
// columns an OLAP transaction touches (Table 1 / Figure 5a).
func benchCreate(strats []ankerdb.SnapshotStrategy) {
	textf("== snapshot creation latency (rows/column=%d, cols=%d) ==\n", *flagRows, *flagCols)
	textf("%-10s", "strategy")
	for touch := 1; touch <= *flagCols; touch *= 2 {
		textf("  %10s", fmt.Sprintf("%d col(s)", touch))
	}
	textf("  %8s\n", "VMAs")
	for _, strat := range strats {
		db := openLoaded(strat, *flagCols)
		textf("%-10s", strat)
		for touch := 1; touch <= *flagCols; touch *= 2 {
			before := db.Stats()
			r, err := db.Begin(ankerdb.OLAP)
			if err != nil {
				fail("%v", err)
			}
			for c := 0; c < touch; c++ {
				if _, err := r.Get("bench", colName(c), 0); err != nil {
					fail("%v", err)
				}
			}
			after := db.Stats()
			if err := r.Commit(); err != nil {
				fail("%v", err)
			}
			// Rotate the generation so the next round snapshots afresh.
			w, err := db.Begin(ankerdb.OLTP)
			if err != nil {
				fail("%v", err)
			}
			if err := w.Set("bench", "c0", 0, 1); err != nil {
				fail("%v", err)
			}
			if err := w.Commit(); err != nil {
				fail("%v", err)
			}
			elapsed := after.SnapshotCreateTime - before.SnapshotCreateTime
			textf("  %10v", elapsed)
			emit(record{Bench: "create", Strategy: string(strat), Shards: -1, Writers: -1, Scanners: -1,
				Touch: touch, Metric: "snapshot_create_ns", Value: float64(elapsed.Nanoseconds())})
		}
		st := db.Stats()
		textf("  %8d\n", st.NumVMAs)
		emit(record{Bench: "create", Strategy: string(strat), Shards: -1, Writers: -1, Scanners: -1,
			Touch: -1, Metric: "vmas", Value: float64(st.NumVMAs)})
		if err := db.Close(); err != nil {
			fail("close: %v", err)
		}
	}
	textf("\n")
}

// benchWrite measures the cost absorbed by writes landing after a
// snapshot: kernel COW page copies versus the manual user-space COW
// path of rewiring (Figure 5b).
func benchWrite(strats []ankerdb.SnapshotStrategy) {
	textf("== write-after-snapshot cost (%d writes across %d rows) ==\n", *flagWrites, *flagRows)
	textf("%-10s  %12s  %10s  %10s  %12s\n",
		"strategy", "commit time", "COW breaks", "sig hooks", "words copied")
	for _, strat := range strats {
		db := openLoaded(strat, *flagCols)
		// Pin a snapshot of every column so each write is a first write
		// against a COW-shared or write-protected page.
		r, err := db.Begin(ankerdb.OLAP)
		if err != nil {
			fail("%v", err)
		}
		for c := 0; c < *flagCols; c++ {
			if _, err := r.Get("bench", colName(c), 0); err != nil {
				fail("%v", err)
			}
		}
		before := db.Stats()
		start := time.Now()
		stride := *flagRows / *flagWrites
		if stride == 0 {
			stride = 1
		}
		w, err := db.Begin(ankerdb.OLTP)
		if err != nil {
			fail("%v", err)
		}
		for i := 0; i < *flagWrites; i++ {
			if err := w.Set("bench", "c0", (i*stride)%*flagRows, int64(i)); err != nil {
				fail("%v", err)
			}
		}
		if err := w.Commit(); err != nil {
			fail("commit: %v", err)
		}
		elapsed := time.Since(start)
		after := db.Stats()
		if err := r.Commit(); err != nil {
			fail("%v", err)
		}
		textf("%-10s  %12v  %10d  %10d  %12d\n", strat, elapsed,
			after.VM.COWBreaks-before.VM.COWBreaks,
			after.VM.SignalHooks-before.VM.SignalHooks,
			after.VM.WordsCopied-before.VM.WordsCopied)
		base := record{Bench: "write", Strategy: string(strat), Shards: -1, Writers: -1, Scanners: -1, Touch: -1}
		emitAll(base, []metric{
			{"commit_ns", float64(elapsed.Nanoseconds())},
			{"cow_breaks", float64(after.VM.COWBreaks - before.VM.COWBreaks)},
			{"sig_hooks", float64(after.VM.SignalHooks - before.VM.SignalHooks)},
			{"words_copied", float64(after.VM.WordsCopied - before.VM.WordsCopied)},
		})
		if err := db.Close(); err != nil {
			fail("close: %v", err)
		}
	}
	textf("\n")
}

// parseMixes validates and splits -mix: "uniform" is the original
// random-cell writer; the rest are internal/workload profiles.
func parseMixes() []string {
	var out []string
	for _, m := range strings.Split(*flagMix, ",") {
		m = strings.TrimSpace(m)
		if m != "uniform" && !workload.Profile(m).Valid() {
			fail("unknown mix %q (want uniform or one of %v)", m, workload.Profiles)
		}
		out = append(out, m)
	}
	return out
}

// benchMixed runs the paper's mixed workload: OLTP writers commit
// against OLAP scanners aggregating snapshotted columns, swept across
// the -mix writer profiles — uniform random cells, the YCSB zipfian
// read/update mixes, and the new-order/payment-style TPCC mix.
func benchMixed(strats []ankerdb.SnapshotStrategy) {
	for _, mix := range parseMixes() {
		textf("== mixed workload (%s, %d writers, %d scanners, refresh every %d commits, %v) ==\n",
			mix, *flagWriters, *flagScanners, *flagRefresh, *flagDur)
		textf("%-10s  %10s  %10s  %8s  %10s  %10s  %10s\n",
			"strategy", "commits/s", "scans/s", "aborts", "snapshots", "staleness", "COW breaks")
		for _, strat := range strats {
			db := openLoaded(strat, *flagCols, ankerdb.WithSnapshotRefresh(*flagRefresh))
			commits, scans, aborts, avgStale := runMixed(db, mix, *flagWriters, *flagScanners, *flagDur)
			st := db.Stats()
			captureStats("mixed", st)
			secs := flagDur.Seconds()
			textf("%-10s  %10.0f  %10.0f  %8d  %10d  %10.1f  %10d\n", strat,
				float64(commits)/secs, float64(scans)/secs,
				aborts, st.SnapshotsCreated, avgStale, st.VM.COWBreaks)
			base := record{Bench: "mixed", Mix: mix, Strategy: string(strat), Shards: st.CommitShards,
				Writers: *flagWriters, Scanners: *flagScanners, Touch: -1}
			emitAll(base, []metric{
				{"commits_per_sec", float64(commits) / secs},
				{"scans_per_sec", float64(scans) / secs},
				{"aborts", float64(aborts)},
				{"snapshots", float64(st.SnapshotsCreated)},
				{"staleness", avgStale},
				{"cow_breaks", float64(st.VM.COWBreaks)},
			})
			if err := db.Close(); err != nil {
				fail("close: %v", err)
			}
		}
		textf("\n")
	}
}

// runMixed drives writers and scanners against db for dur and returns
// the committed/scanned/aborted counts and average scanner staleness.
// mix selects the writer body; scanners are the same for every mix.
func runMixed(db *ankerdb.DB, mix string, writers, scanners int, dur time.Duration) (commits, scans, aborts uint64, avgStale float64) {
	var stop atomic.Bool
	var cCommits, cScans, cAborts, staleness, staleSamples atomic.Uint64
	var wg sync.WaitGroup
	cols := make([]string, *flagCols)
	for c := range cols {
		cols[c] = colName(c)
	}
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if mix != "uniform" {
				g := workload.NewGen(workload.Profile(mix), seed, cols, *flagRows)
				r := &workload.Runner{DB: db, Table: "bench", Cols: cols}
				for !stop.Load() {
					res, err := r.Apply(g.Next())
					if err != nil {
						return
					}
					if res.Committed {
						cCommits.Add(1)
					} else {
						cAborts.Add(1)
					}
				}
				return
			}
			rnd := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				w, err := db.Begin(ankerdb.OLTP)
				if err != nil {
					return
				}
				col := colName(rnd.Intn(*flagCols))
				for k := 0; k < 8; k++ {
					if err := w.Set("bench", col, rnd.Intn(*flagRows), rnd.Int63n(1000)); err != nil {
						return
					}
				}
				if w.Commit() == nil {
					cCommits.Add(1)
				} else {
					cAborts.Add(1)
				}
			}
		}(int64(i) + 1)
	}
	for i := 0; i < scanners; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(-seed))
			for !stop.Load() {
				r, err := db.Begin(ankerdb.OLAP)
				if err != nil {
					return
				}
				staleness.Add(r.Staleness())
				staleSamples.Add(1)
				if _, err := r.Aggregate("bench", colName(rnd.Intn(*flagCols)), ankerdb.Sum); err != nil {
					_ = r.Abort()
					return
				}
				if err := r.Commit(); err != nil {
					return
				}
				cScans.Add(1)
			}
		}(int64(i) + 1)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	if n := staleSamples.Load(); n > 0 {
		avgStale = float64(staleness.Load()) / float64(n)
	}
	return cCommits.Load(), cScans.Load(), cAborts.Load(), avgStale
}

// benchCommit is the Figure 11 experiment: pure OLTP commit throughput
// as the writer count grows, swept across commit shard counts. Writers
// have disjoint column footprints (writer i owns column i), so with
// enough shards their commits validate and install in parallel;
// snapshot refresh is disabled to isolate the commit pipeline.
func benchCommit() {
	shardCounts := parseShards()
	writerCounts := powersOfTwoUpTo(*flagWriters)
	cols := *flagCols
	if cols < *flagWriters {
		cols = *flagWriters
	}

	// results[shards][writers] = commits/s
	results := make(map[int]map[int]float64)
	for _, shards := range shardCounts {
		results[shards] = map[int]float64{}
		for _, writers := range writerCounts {
			db := openLoaded(ankerdb.VMSnap, cols,
				ankerdb.WithCommitShards(shards),
				ankerdb.WithSnapshotRefresh(0))
			st0 := db.Stats()
			commits, aborts := runCommitters(db, writers, *flagDur)
			st := db.Stats()
			captureStats("commit", st)
			if err := db.Close(); err != nil {
				fail("close: %v", err)
			}
			perSec := float64(commits) / flagDur.Seconds()
			results[shards][writers] = perSec
			meanBatch := 0.0
			if batches := st.CommitBatches - st0.CommitBatches; batches > 0 {
				meanBatch = float64(st.Commits-st0.Commits) / float64(batches)
			}
			base := record{Bench: "commit", Strategy: string(ankerdb.VMSnap),
				Shards: st.CommitShards, Writers: writers, Scanners: 0, Touch: -1}
			emitAll(base, []metric{
				{"commits_per_sec", perSec},
				{"aborts", float64(aborts)},
				{"commit_batches", float64(st.CommitBatches)},
				{"mean_batch_size", meanBatch},
				{"cross_shard_commits", float64(st.CommitShardConflicts)},
				{"recent_list_records", float64(st.RecentCommitRecords)},
			})
		}
	}

	textf("== commit scaling (Figure 11): 8 writes/txn, disjoint columns, snapshots off, %v/point ==\n", *flagDur)
	textf("%-8s", "writers")
	for _, shards := range shardCounts {
		textf("  %14s", fmt.Sprintf("shards=%d", shardLabel(shards)))
	}
	if len(shardCounts) >= 2 {
		textf("  %8s", "speedup")
	}
	textf("\n")
	for _, writers := range writerCounts {
		textf("%-8d", writers)
		for _, shards := range shardCounts {
			textf("  %14.0f", results[shards][writers])
		}
		if len(shardCounts) >= 2 {
			lo := results[shardCounts[0]][writers]
			hi := results[shardCounts[len(shardCounts)-1]][writers]
			if lo > 0 {
				textf("  %7.2fx", hi/lo)
			}
		}
		textf("\n")
	}
	textf("\n")
}

// runCommitters drives writers committing 8-row write sets into their
// own columns for dur.
func runCommitters(db *ankerdb.DB, writers int, dur time.Duration) (commits, aborts uint64) {
	var stop atomic.Bool
	var cCommits, cAborts atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(writer int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(writer) + 1))
			col := colName(writer)
			for !stop.Load() {
				w, err := db.Begin(ankerdb.OLTP)
				if err != nil {
					return
				}
				for k := 0; k < 8; k++ {
					if err := w.Set("bench", col, rnd.Intn(*flagRows), rnd.Int63n(1000)); err != nil {
						return
					}
				}
				if w.Commit() == nil {
					cCommits.Add(1)
				} else {
					cAborts.Add(1)
				}
			}
		}(i)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	return cCommits.Load(), cAborts.Load()
}

// parseShards parses -shards; 0 entries resolve to GOMAXPROCS at Open
// time but are labelled with the resolved value in output.
func parseShards() []int {
	var out []int
	for _, s := range strings.Split(*flagShards, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 0 {
			fail("bad -shards entry %q", s)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		fail("-shards is empty")
	}
	return out
}

func shardLabel(n int) int {
	if n == 0 {
		return ankerdb.AutoCommitShards()
	}
	return n
}

func powersOfTwoUpTo(n int) []int {
	var out []int
	for w := 1; w < n; w *= 2 {
		out = append(out, w)
	}
	out = append(out, n)
	return out
}

// benchGrow measures growable-table insert throughput: concurrent
// writers commit single-row Inserts (each birthing a row through the
// table's owning commit shard and writing every column), swept across
// snapshot strategies and commit shard counts. After the timed phase,
// half the inserted rows are deleted and reclaimed by Vacuum, and the
// reuse rate of the following inserts is reported — the free-list
// path. insert throughput is also emitted as commits_per_sec so the
// CI bench-regression gate covers the grow path with its default
// metric.
func benchGrow(strats []ankerdb.SnapshotStrategy) {
	shardCounts := parseShards()
	textf("== grow: insert throughput (%d writers, %v/point) × strategies × shards ==\n", *flagWriters, *flagDur)
	textf("%-10s  %8s  %10s  %8s  %12s  %10s  %10s\n",
		"strategy", "shards", "inserts/s", "aborts", "rows grown", "reclaimed", "reused")
	for _, strat := range strats {
		for _, shards := range shardCounts {
			db := openLoaded(strat, *flagCols,
				ankerdb.WithCommitShards(shards),
				ankerdb.WithSnapshotRefresh(0))
			inserts, aborts := runInserters(db, *flagWriters, *flagDur)
			st := db.Stats()
			captureStats("grow", st)

			// Free-list cycle: delete half the inserted rows, reclaim,
			// and reinsert that many — counting how many slots came back
			// from the free list instead of growing the table.
			deleted := reapEvenInsertedRows(db, int(inserts))
			db.Vacuum()
			reclaimed := db.Stats().RowsReclaimed
			freeBefore := db.Stats().RowsFree
			for i := 0; i < deleted; i++ {
				w, err := db.Begin(ankerdb.OLTP)
				if err != nil {
					fail("%v", err)
				}
				if _, err := w.Insert("bench", map[string]any{"c0": int64(i)}); err != nil {
					fail("%v", err)
				}
				if err := w.Commit(); err != nil {
					fail("%v", err)
				}
			}
			reused := freeBefore - db.Stats().RowsFree
			if err := db.Close(); err != nil {
				fail("close: %v", err)
			}

			perSec := float64(inserts) / flagDur.Seconds()
			textf("%-10s  %8d  %10.0f  %8d  %12d  %10d  %10d\n",
				strat, st.CommitShards, perSec, aborts, st.RowInserts, reclaimed, reused)
			base := record{Bench: "grow", Strategy: string(strat),
				Shards: st.CommitShards, Writers: *flagWriters, Scanners: 0, Touch: -1}
			emitAll(base, []metric{
				{"inserts_per_sec", perSec},
				{"commits_per_sec", perSec},
				{"aborts", float64(aborts)},
				{"rows_inserted", float64(st.RowInserts)},
				{"rows_reclaimed", float64(reclaimed)},
				{"rows_reused", float64(reused)},
				{"capacity_rows", float64(st.TableCapacity)},
			})
		}
	}
	textf("\n")
}

// runInserters drives writers committing one-row inserts for dur.
func runInserters(db *ankerdb.DB, writers int, dur time.Duration) (inserts, aborts uint64) {
	var stop atomic.Bool
	var cInserts, cAborts atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(writer int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(writer) + 1))
			for !stop.Load() {
				w, err := db.Begin(ankerdb.OLTP)
				if err != nil {
					return
				}
				if _, err := w.Insert("bench", map[string]any{"c0": rnd.Int63n(1000)}); err != nil {
					// Abort so the dead txn does not pin the GC floor and
					// zero out the reclaim metrics of the reuse phase.
					_ = w.Abort()
					return
				}
				if w.Commit() == nil {
					cInserts.Add(1)
				} else {
					cAborts.Add(1)
				}
			}
		}(i)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	return cInserts.Load(), cAborts.Load()
}

// reapEvenInsertedRows deletes every second row above the bulk-loaded
// prefix (the rows the timed insert phase created), returning how many
// it deleted. Deletions run one per transaction, best effort.
func reapEvenInsertedRows(db *ankerdb.DB, inserted int) int {
	deleted := 0
	for i := 0; i < inserted; i += 2 {
		row := *flagRows + i
		w, err := db.Begin(ankerdb.OLTP)
		if err != nil {
			return deleted
		}
		if err := w.Delete("bench", row); err != nil {
			_ = w.Abort()
			continue
		}
		if w.Commit() == nil {
			deleted++
		}
	}
	return deleted
}

// benchDurability sweeps the WAL sync policies across commit shard
// counts: commit throughput with durability on (fsync cost amortized
// per group under groupOnly, per record under always, absent under
// none), then a timed crash recovery (reopen and replay the full WAL)
// and a timed snapshot-driven checkpoint of the recovered database.
func benchDurability() {
	policies := parseSyncPolicies()
	shardCounts := parseShards()
	cols := *flagCols
	if cols < *flagWriters {
		cols = *flagWriters
	}
	root := *flagDurDir
	if root == "" {
		dir, err := os.MkdirTemp("", "ankerbench-durability-")
		if err != nil {
			fail("durability temp dir: %v", err)
		}
		defer func() { _ = os.RemoveAll(dir) }()
		root = dir
	}

	textf("== durability (%d writers, %v/point): WAL sync policy × commit shards ==\n", *flagWriters, *flagDur)
	textf("%-10s  %8s  %10s  %12s  %8s  %12s  %12s\n",
		"sync", "shards", "commits/s", "WAL MiB", "fsyncs", "recovery", "checkpoint")
	for _, policy := range policies {
		for i, shards := range shardCounts {
			dir := filepath.Join(root, fmt.Sprintf("%s-%d", policy, i))
			db := openLoaded(ankerdb.VMSnap, cols,
				ankerdb.WithCommitShards(shards),
				ankerdb.WithSnapshotRefresh(0),
				ankerdb.WithDurability(dir),
				ankerdb.WithSyncPolicy(policy))
			commits, aborts := runCommitters(db, *flagWriters, *flagDur)
			st := db.Stats()
			captureStats("durability", st)
			if err := db.Close(); err != nil {
				fail("close: %v", err)
			}

			// Crash recovery: reopen the directory and replay the WAL.
			// Plain Open, no initial schema or bulk Load — the tables
			// come back from the schema log, so the timing is recovery
			// alone, not benchmark data loading.
			recStart := time.Now()
			db, err := ankerdb.Open(
				ankerdb.WithSnapshotStrategy(ankerdb.VMSnap),
				ankerdb.WithCostModel(costModel()),
				ankerdb.WithCommitShards(shards),
				ankerdb.WithSnapshotRefresh(0),
				ankerdb.WithDurability(dir),
				ankerdb.WithSyncPolicy(policy))
			if err != nil {
				fail("reopen %s: %v", dir, err)
			}
			recovery := time.Since(recStart)
			replayed := db.Stats().RecoveryReplayedTxns

			// Checkpoint the recovered state (pins a snapshot
			// generation; writers would not be blocked).
			ckStart := time.Now()
			if err := db.Checkpoint(); err != nil {
				fail("checkpoint: %v", err)
			}
			checkpoint := time.Since(ckStart)
			if err := db.Close(); err != nil {
				fail("close: %v", err)
			}

			perSec := float64(commits) / flagDur.Seconds()
			fsyncsPerCommit := 0.0
			if commits > 0 {
				fsyncsPerCommit = float64(st.FsyncCount) / float64(commits)
			}
			textf("%-10s  %8d  %10.0f  %12.2f  %8d  %12v  %12v\n",
				policy, st.CommitShards, perSec, float64(st.WALBytes)/(1<<20),
				st.FsyncCount, recovery, checkpoint)
			base := record{Bench: "durability", Strategy: policy.String(),
				Shards: st.CommitShards, Writers: *flagWriters, Scanners: 0, Touch: -1}
			emitAll(base, []metric{
				{"commits_per_sec", perSec},
				{"aborts", float64(aborts)},
				{"wal_bytes", float64(st.WALBytes)},
				{"fsyncs", float64(st.FsyncCount)},
				{"fsyncs_per_commit", fsyncsPerCommit},
				{"recovery_ns", float64(recovery.Nanoseconds())},
				{"recovery_replayed_txns", float64(replayed)},
				{"checkpoint_ns", float64(checkpoint.Nanoseconds())},
			})
		}
	}
	textf("\n")
}

// benchRecovery is the restart-latency sweep: database size (rows per
// column, carried in the "touch" dimension of the records) against
// crash-recovery time and the transient memory the streaming recovery
// path held. Each configuration builds a durable database with a bulk
// load, a pre-checkpoint commit tail, a checkpoint, and a
// post-checkpoint WAL tail — so the timed reopen exercises schema
// replay, streaming checkpoint load, and WAL replay together.
// recovery_peak_bytes staying flat while checkpoint_bytes grows with
// rows is the O(chunk)-restart-memory evidence (the legacy reader
// slurped whole files: peak tracked checkpoint size).
func benchRecovery() {
	sizes := []int{*flagRows, *flagRows * 4, *flagRows * 16}
	root := *flagDurDir
	if root == "" {
		dir, err := os.MkdirTemp("", "ankerbench-recovery-")
		if err != nil {
			fail("recovery temp dir: %v", err)
		}
		defer func() { _ = os.RemoveAll(dir) }()
		root = dir
	}

	textf("== recovery: DB size vs streaming restart latency (cols=%d) ==\n", *flagCols)
	textf("%-10s  %12s  %12s  %12s  %10s  %10s\n",
		"rows/col", "ckpt MiB", "WAL tail KiB", "recovery", "replayed", "peak KiB")
	for _, rows := range sizes {
		dir := filepath.Join(root, fmt.Sprintf("rows-%d", rows))
		opts := func() []ankerdb.Option {
			return []ankerdb.Option{
				ankerdb.WithSnapshotStrategy(ankerdb.VMSnap),
				ankerdb.WithCostModel(costModel()),
				ankerdb.WithSnapshotRefresh(0),
				ankerdb.WithDurability(dir),
			}
		}
		schema := ankerdb.Schema{Table: "bench"}
		for c := 0; c < *flagCols; c++ {
			schema.Columns = append(schema.Columns,
				ankerdb.ColumnDef{Name: colName(c), Type: ankerdb.Int64})
		}
		db, err := ankerdb.Open(append(opts(), ankerdb.WithInitialSchema(schema, rows))...)
		if err != nil {
			fail("open %s: %v", dir, err)
		}
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = int64(i % 1000)
		}
		for c := 0; c < *flagCols; c++ {
			if err := db.Load("bench", colName(c), vals); err != nil {
				fail("load: %v", err)
			}
		}
		commitN := func(n int) {
			for i := 0; i < n; i++ {
				w, err := db.Begin(ankerdb.OLTP)
				if err != nil {
					fail("%v", err)
				}
				for k := 0; k < 8; k++ {
					if err := w.Set("bench", colName((i+k)%*flagCols), (i*8+k)%rows, int64(i)); err != nil {
						fail("%v", err)
					}
				}
				if err := w.Commit(); err != nil {
					fail("commit: %v", err)
				}
			}
		}
		commitN(256)
		if err := db.Checkpoint(); err != nil {
			fail("checkpoint: %v", err)
		}
		commitN(256) // post-checkpoint WAL tail for replay
		if err := db.Close(); err != nil {
			fail("close: %v", err)
		}
		ckptBytes := globBytes(filepath.Join(dir, "checkpoint-*.ckpt"))
		walBytes := globBytes(filepath.Join(dir, "wal", "*.wal"))

		start := time.Now()
		db2, err := ankerdb.Open(opts()...)
		if err != nil {
			fail("reopen %s: %v", dir, err)
		}
		recovery := time.Since(start)
		st := db2.Stats()
		if err := db2.Close(); err != nil {
			fail("close: %v", err)
		}

		textf("%-10d  %12.2f  %12.1f  %12v  %10d  %10.1f\n", rows,
			float64(ckptBytes)/(1<<20), float64(walBytes)/(1<<10), recovery,
			st.RecoveryReplayedTxns, float64(st.RecoveryPeakBytes)/(1<<10))
		base := record{Bench: "recovery", Strategy: string(ankerdb.VMSnap),
			Shards: st.CommitShards, Writers: -1, Scanners: -1, Touch: rows}
		emitAll(base, []metric{
			{"recovery_ns", float64(recovery.Nanoseconds())},
			{"recovery_peak_bytes", float64(st.RecoveryPeakBytes)},
			{"recovery_replayed_txns", float64(st.RecoveryReplayedTxns)},
			{"recovery_replayed_loads", float64(st.RecoveryReplayedLoads)},
			{"checkpoint_bytes", float64(ckptBytes)},
			{"wal_tail_bytes", float64(walBytes)},
		})
	}
	textf("\n")
}

// benchQuery measures streaming-engine query throughput: a filtered
// group-by aggregate (SUM and COUNT of v per g, filtered on k) over a
// pinned snapshot, swept across predicate selectivity and morsel
// parallelism per snapshot strategy. The key column is bulk-loaded
// sorted, so zone maps prune the blocks outside the Between range;
// zone_skip_pct reports the pruned fraction per point. Query
// throughput is also emitted as commits_per_sec so the CI
// bench-regression gate covers the query path with its default metric
// (shards=-1 keeps the gate group independent of GOMAXPROCS).
func benchQuery(strats []ankerdb.SnapshotStrategy) {
	selectivities := []int{1, 10, 50, 100} // percent of the key range
	morselCounts := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		morselCounts = append(morselCounts, p)
	}
	rows := *flagRows
	textf("== query: filtered group-by aggregate (%d rows, %v/point) × selectivity × morsels ==\n",
		rows, *flagDur)
	textf("%-10s  %8s  %6s  %11s  %9s  %9s  %8s\n",
		"strategy", "morsels", "sel%", "queries/s", "scanned", "skipped", "skip%")
	for _, strat := range strats {
		db := openQueryTable(strat, rows)
		for _, morsels := range morselCounts {
			for _, sel := range selectivities {
				hi := int64(rows*sel/100) - 1
				var queries uint64
				var last ankerdb.QueryStats
				deadline := time.Now().Add(*flagDur)
				for time.Now().Before(deadline) {
					res, err := db.Query("bench").
						Where(ankerdb.Between("k", 0, hi)).
						GroupBy("g").
						Aggregate(ankerdb.SumOf("v"), ankerdb.CountRows()).
						Morsels(morsels).
						Run()
					if err != nil {
						fail("query: %v", err)
					}
					last = res.Stats
					queries++
				}
				perSec := float64(queries) / flagDur.Seconds()
				skipPct := 0.0
				if total := last.BlocksScanned + last.BlocksSkipped; total > 0 {
					skipPct = 100 * float64(last.BlocksSkipped) / float64(total)
				}
				textf("%-10s  %8d  %6d  %11.0f  %9d  %9d  %7.1f%%\n",
					strat, morsels, sel, perSec, last.BlocksScanned, last.BlocksSkipped, skipPct)
				base := record{Bench: "query", Strategy: string(strat),
					Shards: -1, Writers: morsels, Scanners: -1, Touch: sel}
				emitAll(base, []metric{
					{"queries_per_sec", perSec},
					{"commits_per_sec", perSec},
					{"blocks_scanned", float64(last.BlocksScanned)},
					{"blocks_skipped", float64(last.BlocksSkipped)},
					{"zone_skip_pct", skipPct},
					{"rows_scanned", float64(last.RowsScanned)},
				})
			}
		}
		captureStats("query", db.Stats())
		if err := db.Close(); err != nil {
			fail("close: %v", err)
		}
	}
	textf("\n")
}

// openQueryTable opens a DB with the query benchmark table: k sorted
// (the zone-prunable filter column), g a 16-way grouping key, v the
// aggregated payload.
func openQueryTable(strat ankerdb.SnapshotStrategy, rows int) *ankerdb.DB {
	schema := ankerdb.Schema{Table: "bench", Columns: []ankerdb.ColumnDef{
		{Name: "k", Type: ankerdb.Int64},
		{Name: "g", Type: ankerdb.Int64},
		{Name: "v", Type: ankerdb.Int64},
	}}
	db, err := ankerdb.Open(
		ankerdb.WithSnapshotStrategy(strat),
		ankerdb.WithCostModel(costModel()),
		ankerdb.WithInitialSchema(schema, rows))
	if err != nil {
		fail("open %s: %v", strat, err)
	}
	k := make([]int64, rows)
	g := make([]int64, rows)
	v := make([]int64, rows)
	for i := 0; i < rows; i++ {
		k[i] = int64(i)
		g[i] = int64(i % 16)
		v[i] = int64(i % 1000)
	}
	for col, vals := range map[string][]int64{"k": k, "g": g, "v": v} {
		if err := db.Load("bench", col, vals); err != nil {
			fail("load %s: %v", col, err)
		}
	}
	return db
}

// benchIndex measures the secondary-index speedup: equality point
// lookups (hash index, ~0.1% selectivity at the default value cycle)
// and narrow ranges (ordered index, ~1% selectivity) through the
// engine's index routing, against the identical queries forced down
// the scan path with WithoutPruning. Values cycle per block so zone
// maps cannot prune the scan — the measured gap is the index alone.
// Indexed point-lookup throughput is also emitted as commits_per_sec
// so the CI bench-regression gate covers the probe path with its
// default metric (shards=-1 keeps the gate group GOMAXPROCS-free).
func benchIndex(strats []ankerdb.SnapshotStrategy) {
	rows := *flagRows
	vals := 1000 // distinct values per column: 1M rows -> 0.1% point selectivity
	if vals > rows {
		vals = rows
	}
	textf("== index: point + range lookups, indexed vs scan (%d rows, %d values, %v/side) ==\n",
		rows, vals, *flagDur)
	textf("%-10s  %-6s  %11s  %11s  %8s\n", "strategy", "probe", "indexed/s", "scan/s", "speedup")
	for _, strat := range strats {
		db := openIndexTable(strat, rows, vals)
		st0 := db.Stats()
		run := func(point, scan bool) float64 {
			var queries uint64
			deadline := time.Now().Add(*flagDur)
			for t := 0; time.Now().Before(deadline); t++ {
				target := int64(t % vals)
				q := db.Query("bench")
				if point {
					q = q.Where(ankerdb.Eq("v", target))
				} else {
					q = q.Where(ankerdb.Between("r", target, target+int64(vals/100)))
				}
				q = q.Select(ankerdb.RowID)
				if scan {
					q = q.WithoutPruning()
				}
				if _, err := q.Run(); err != nil {
					fail("index query: %v", err)
				}
				queries++
			}
			return float64(queries) / flagDur.Seconds()
		}
		pointIdx := run(true, false)
		pointScan := run(true, true)
		rangeIdx := run(false, false)
		rangeScan := run(false, true)
		st := db.Stats()
		captureStats("index", st)
		if st.IndexProbes == st0.IndexProbes {
			fail("index bench: %s served no index probes — engine routing regressed", strat)
		}
		if err := db.Close(); err != nil {
			fail("close: %v", err)
		}

		speedup := func(idx, scan float64) float64 {
			if scan <= 0 {
				return 0
			}
			return idx / scan
		}
		textf("%-10s  %-6s  %11.0f  %11.0f  %7.1fx\n", strat, "point", pointIdx, pointScan, speedup(pointIdx, pointScan))
		textf("%-10s  %-6s  %11.0f  %11.0f  %7.1fx\n", strat, "range", rangeIdx, rangeScan, speedup(rangeIdx, rangeScan))
		base := record{Bench: "index", Strategy: string(strat), Shards: -1, Writers: 1, Scanners: -1, Touch: -1}
		emitAll(base, []metric{
			{"point_indexed_per_sec", pointIdx},
			{"commits_per_sec", pointIdx},
			{"point_scan_per_sec", pointScan},
			{"point_speedup", speedup(pointIdx, pointScan)},
			{"range_indexed_per_sec", rangeIdx},
			{"range_scan_per_sec", rangeScan},
			{"range_speedup", speedup(rangeIdx, rangeScan)},
			{"index_probes", float64(st.IndexProbes - st0.IndexProbes)},
			{"index_entries", float64(st.IndexEntries)},
		})
	}
	textf("\n")
}

// openIndexTable opens a DB with the index benchmark table: v hash-
// indexed (point probes), r ordered-indexed (range probes), pad an
// unindexed payload. All three cycle through vals distinct values, so
// every block spans the whole value range and zone maps cannot prune.
func openIndexTable(strat ankerdb.SnapshotStrategy, rows, vals int) *ankerdb.DB {
	schema := ankerdb.NewSchema("bench").
		Int64("v").Indexed(ankerdb.Hash).
		Int64("r").Indexed(ankerdb.Ordered).
		Int64("pad").
		Build()
	db, err := ankerdb.Open(
		ankerdb.WithSnapshotStrategy(strat),
		ankerdb.WithCostModel(costModel()),
		ankerdb.WithInitialSchema(schema, rows))
	if err != nil {
		fail("open %s: %v", strat, err)
	}
	cycle := make([]int64, rows)
	for i := range cycle {
		cycle[i] = int64(i % vals)
	}
	for _, col := range []string{"v", "r", "pad"} {
		if err := db.Load("bench", col, cycle); err != nil {
			fail("load %s: %v", col, err)
		}
	}
	return db
}

// benchReplication attaches a WAL-streaming read replica to a durable
// serving primary and sweeps write rate (writer count) across commit
// shard counts. While the committers run, the primary's reported
// replica lag (in commits, from the replica's acks) is sampled and the
// replica serves OLAP aggregates, measuring the staleness/throughput
// trade the serving tier actually delivers. After the writers stop,
// the catch-up time to full convergence is timed. Write throughput is
// also emitted as commits_per_sec so the CI bench-regression gate
// covers the streaming path with its default metric.
func benchReplication() {
	shardCounts := parseShards()
	writerCounts := powersOfTwoUpTo(*flagWriters)
	cols := *flagCols
	if cols < *flagWriters {
		cols = *flagWriters
	}
	root := *flagDurDir
	if root == "" {
		dir, err := os.MkdirTemp("", "ankerbench-replication-")
		if err != nil {
			fail("replication temp dir: %v", err)
		}
		defer func() { _ = os.RemoveAll(dir) }()
		root = dir
	}

	textf("== replication: replica lag vs write rate × commit shards (%v/point, %d readers on the replica) ==\n",
		*flagDur, *flagScanners)
	textf("%-8s  %8s  %10s  %10s  %9s  %9s  %10s  %10s\n",
		"writers", "shards", "commits/s", "reads/s", "lag mean", "lag max", "catch-up", "frames")
	for _, shards := range shardCounts {
		for i, writers := range writerCounts {
			dir := filepath.Join(root, fmt.Sprintf("repl-%d-%d", shards, i))
			primary := openLoaded(ankerdb.VMSnap, cols,
				ankerdb.WithCommitShards(shards),
				ankerdb.WithDurability(dir),
				ankerdb.WithSyncPolicy(ankerdb.SyncNone),
				ankerdb.WithServeAddr("127.0.0.1:0"))
			replica, err := ankerdb.Open(
				ankerdb.WithSnapshotStrategy(ankerdb.VMSnap),
				ankerdb.WithCostModel(costModel()),
				ankerdb.WithReplicaOf(primary.ServeAddr()))
			if err != nil {
				fail("open replica: %v", err)
			}

			// Replica readers and a lag sampler run for the duration of
			// the committer workload.
			var stop atomic.Bool
			var reads, lagSum, lagSamples, lagMax atomic.Uint64
			var wg sync.WaitGroup
			for r := 0; r < *flagScanners; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rnd := rand.New(rand.NewSource(seed))
					for !stop.Load() {
						t, err := replica.Begin(ankerdb.OLAP)
						if err != nil {
							return
						}
						if _, err := t.Aggregate("bench", colName(rnd.Intn(cols)), ankerdb.Sum); err != nil {
							_ = t.Abort()
							return
						}
						if err := t.Commit(); err != nil {
							return
						}
						reads.Add(1)
					}
				}(int64(r) + 1)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					lag := primary.Stats().MaxReplicaLag
					lagSum.Add(lag)
					lagSamples.Add(1)
					if lag > lagMax.Load() {
						lagMax.Store(lag)
					}
					time.Sleep(20 * time.Millisecond)
				}
			}()

			commits, _ := runCommitters(primary, writers, *flagDur)
			target := primary.Stats().CompletedCommitTS
			stop.Store(true)
			wg.Wait()

			// Catch-up: the stream drains to the primary's final watermark.
			cuStart := time.Now()
			for replica.Stats().CompletedCommitTS < target {
				if time.Since(cuStart) > 30*time.Second {
					fail("replica never converged: %d < %d", replica.Stats().CompletedCommitTS, target)
				}
				time.Sleep(time.Millisecond)
			}
			catchup := time.Since(cuStart)
			pst := primary.Stats()
			captureStats("replication", pst)
			if err := replica.Close(); err != nil {
				fail("close replica: %v", err)
			}
			if err := primary.Close(); err != nil {
				fail("close primary: %v", err)
			}

			secs := flagDur.Seconds()
			meanLag := 0.0
			if n := lagSamples.Load(); n > 0 {
				meanLag = float64(lagSum.Load()) / float64(n)
			}
			textf("%-8d  %8d  %10.0f  %10.0f  %9.1f  %9d  %10v  %10d\n",
				writers, pst.CommitShards, float64(commits)/secs, float64(reads.Load())/secs,
				meanLag, lagMax.Load(), catchup, pst.ReplFramesStreamed)
			base := record{Bench: "replication", Strategy: string(ankerdb.VMSnap),
				Shards: pst.CommitShards, Writers: writers, Scanners: *flagScanners, Touch: -1}
			emitAll(base, []metric{
				{"commits_per_sec", float64(commits) / secs},
				{"replica_reads_per_sec", float64(reads.Load()) / secs},
				{"lag_mean_commits", meanLag},
				{"lag_max_commits", float64(lagMax.Load())},
				{"catchup_ns", float64(catchup.Nanoseconds())},
				{"frames_streamed", float64(pst.ReplFramesStreamed)},
				{"subscriber_drops", float64(pst.ReplSubscriberDrop)},
			})
		}
	}
	textf("\n")
}

// globBytes sums the sizes of files matching pattern.
func globBytes(pattern string) int64 {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		fail("glob %s: %v", pattern, err)
	}
	var n int64
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			n += fi.Size()
		}
	}
	return n
}

func parseSyncPolicies() []ankerdb.SyncPolicy {
	var out []ankerdb.SyncPolicy
	for _, s := range strings.Split(*flagSync, ",") {
		p, err := ankerdb.ParseSyncPolicy(strings.TrimSpace(s))
		if err != nil {
			fail("%v", err)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		fail("-sync is empty")
	}
	return out
}
