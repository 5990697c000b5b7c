package main

import (
	"bytes"
	"encoding/json"
)

// metricSpec names one reported metric. End-to-end metrics carry the
// share of the parent's median by which they may worsen before a change
// counts as a regression; per-layer metrics carry no bound. A per-layer
// metric's layer is the prefix of its name before the first dot.
//
// Every metric is emitted on every workload. A metric that is exactly
// zero on a workload that bypasses its layer (wal on htap, repl outside
// serve-replica) is therefore a count, ratio or rate, never a per-op
// time, so a zero reads as "no work" rather than as a frozen timing.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the engine sees, on every workload.
// Bounds are the widest allowed: the figures come from a shared 2-vCPU
// host whose CPU steal reaches 20% for minutes at a time, which moves
// every timing; only the heap peak is steady enough for a tighter one.
// The tails (txn p99, query p95) are printed but not listed: under that
// steal their run-to-run spread exceeds the widest bound.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"txn_per_s", "1/s", "higher", 0.25},
	{"txn_p50_us", "us", "lower", 0.25},
	{"heap_peak_mb", "MB", "lower", 0.1},
	{"query_per_s", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
}

// perLayer lists the traced run's per-layer metrics.
var perLayer = []metricSpec{
	{Name: "txn.begin_us", Unit: "us", Better: "lower"},
	{Name: "txn.stage_us", Unit: "us", Better: "lower"},
	{Name: "commit.call_p50_us", Unit: "us", Better: "lower"},
	{Name: "commit.call_p99_us", Unit: "us", Better: "lower"},
	{Name: "commit.validate_us", Unit: "us", Better: "lower"},
	{Name: "commit.install_us", Unit: "us", Better: "lower"},
	{Name: "commit.lock_wait_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "commit.batch_size", Unit: "count", Better: "higher"},
	{Name: "commit.abort_pct", Unit: "%", Better: "lower"},
	{Name: "snapshot.pin_us", Unit: "us", Better: "lower"},
	{Name: "snapshot.capture_us", Unit: "us", Better: "lower"},
	{Name: "snapshot.create_us", Unit: "us", Better: "lower"},
	{Name: "snapshot.release_us", Unit: "us", Better: "lower"},
	{Name: "snapshot.per_query", Unit: "count", Better: "lower"},
	{Name: "snapshot.staleness_commits", Unit: "count", Better: "lower"},
	{Name: "vmem.cow_breaks_per_query", Unit: "count", Better: "lower"},
	{Name: "vmem.words_copied_per_txn", Unit: "count", Better: "lower"},
	{Name: "vmem.pte_copies_per_snapshot", Unit: "count", Better: "lower"},
	{Name: "vmem.syscalls_per_query", Unit: "count", Better: "lower"},
	{Name: "vmem.sim_kernel_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "query.run_ms", Unit: "ms", Better: "lower"},
	{Name: "query.blocks_scanned", Unit: "count", Better: "lower"},
	{Name: "query.rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "index.raw_per_live", Unit: "ratio", Better: "lower"},
	{Name: "index.rebuilt", Unit: "count", Better: "lower"},
	{Name: "wal.append_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "wal.bytes_per_txn", Unit: "B", Better: "lower"},
	{Name: "wal.checkpoints", Unit: "count", Better: "lower"},
	{Name: "wal.checkpoint_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "wal.replayed_txns", Unit: "count", Better: "lower"},
	{Name: "wal.replay_txn_per_s", Unit: "1/s", Better: "higher"},
	{Name: "wal.recovery_peak_bytes", Unit: "B", Better: "lower"},
	{Name: "repl.frames_per_commit", Unit: "count", Better: "lower"},
	{Name: "repl.subscriber_drops", Unit: "count", Better: "lower"},
	{Name: "repl.bootstraps", Unit: "count", Better: "lower"},
	{Name: "repl.lag_commits_max", Unit: "count", Better: "lower"},
	{Name: "repl.final_gap_commits", Unit: "count", Better: "lower"},
	{Name: "storage.load_s", Unit: "s", Better: "lower"},
	{Name: "storage.capacity_rows", Unit: "count", Better: "lower"},
	{Name: "storage.rows_free", Unit: "count", Better: "lower"},
	{Name: "runtime.allocs_per_txn", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "other.txn_us", Unit: "us", Better: "lower"},
	{Name: "other.query_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*runConfig) (*outcome, error)
}

var workloads = []workloadSpec{
	{"htap", "the paper's mixed workload: transfers on the newest state while analysts scan a 128 MiB table through per-commit vm_snapshot snapshots", runHTAP},
	{"oltp-durable", "logged TPC-C writers on a cache-sized indexed table with auto-checkpoints; recovery is timed after the run", runOLTPDurable},
	{"serve-replica", "a serving primary past its replication history cap: transfers over two remote sessions while an in-process replica applies the stream", runServeReplica},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// benchmarkSpec renders BENCHMARK.json, the benchmark's contract: the
// command, its directories, the workloads and every metric.
func benchmarkSpec() ([]byte, error) {
	spec := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: defaultSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
