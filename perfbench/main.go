// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload through the public ankerdb API, checks every
// answer it gets, and prints each metric by name with its unit; the
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is split into an untraced half and a traced half, spans are taken
// around every public call the benchmark makes, and the metrics are the
// per-layer ones (span self times, Stats deltas, runtime counters).
//
//	bash perfbench/run.sh --workload htap --seed 1 --seconds 20 --trace 0
//	go run . -spec > ../BENCHMARK.json     (from perfbench/)
//
// Load shape: every workload is a closed loop of two client goroutines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ankerdb"
)

const defaultSeconds = 20

// runConfig is one invocation's settings. scale and setups shrink
// for the package's own short tests.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // scratch directory for durable databases
	traceDir string // where the traced run writes its spans
	setups   int    // set-ups per run; setup_s is their median
	scale    int    // right shift applied to every table's row count
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int64
	checkFailures     []string
	metrics           map[string]float64
	extra             []string // human-readable lines printed before the result
	env               map[string]any
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.checkFailures) < 8 {
		o.checkFailures = append(o.checkFailures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.extra = append(o.extra, fmt.Sprintf(format, args...))
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: htap, oltp-durable or serve-replica")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured seconds")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		dir      = flag.String("dir", filepath.Join(".bench_build", "data"), "scratch directory for durable databases")
		traceDir = flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory the traced run writes spans to")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *spec {
		b, err := benchmarkSpec()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		os.Stdout.Write(b)
		return
	}
	w, ok := findWorkload(*workload)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.Name
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := &runConfig{workload: w.Name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		dir: *dir, traceDir: *traceDir, setups: 3}
	out, err := run(w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	correct := report(os.Stdout, cfg, out)
	if !correct {
		os.Exit(1)
	}
}

// run executes one workload inside its own scratch directory.
func run(w workloadSpec, cfg *runConfig) (*outcome, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	cfg.dir = scratch
	out, err := w.run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	out.env["seed"] = cfg.seed
	out.env["workload"] = cfg.workload
	out.env["gomaxprocs"] = runtime.GOMAXPROCS(0)
	out.env["num_cpu"] = runtime.NumCPU()
	out.env["go"] = runtime.Version()
	out.env["cost_model"] = fmt.Sprintf("DefaultCost%+v", ankerdb.DefaultCost)
	out.env["clients"] = 2
	out.env["seconds"] = cfg.seconds
	out.env["traced"] = cfg.trace
	return out, nil
}

// report prints the environment, every metric by name with its unit,
// and the result line. It returns whether every check passed.
func report(f io.Writer, cfg *runConfig, out *outcome) bool {
	env, _ := json.Marshal(out.env)
	fmt.Fprintf(f, "env %s\n", env)
	for _, l := range out.extra {
		fmt.Fprintln(f, l)
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(specs))
	for _, m := range specs {
		v, ok := out.metrics[m.Name]
		if !ok {
			out.fail("metric %s was not measured", m.Name)
		}
		ms[m.Name] = value{v, m.Unit}
		fmt.Fprintf(f, "metric %-30s %16.4f %s\n", m.Name, v, m.Unit)
	}
	fmt.Fprintf(f, "also error_pct %.4f %% (%d failed of %d attempted)\n",
		100*ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)
	for _, c := range out.checkFailures {
		fmt.Fprintf(f, "check FAILED: %s\n", c)
	}
	correct := len(out.checkFailures) == 0
	res, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, max(out.attempted, 1), out.failed, ms})
	fmt.Fprintf(f, "%s\n", res)
	return correct
}

// percentile returns the nearest-rank q-quantile of sorted samples.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	i = min(max(i, 0), len(sorted)-1)
	return float64(sorted[i])
}

func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func medianSeconds(ds []time.Duration) float64 {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = d.Seconds()
	}
	return median(s)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
