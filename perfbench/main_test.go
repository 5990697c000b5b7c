package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tinyConfig shrinks a workload to seconds of work: tables 64× smaller,
// one set-up, one second measured.
func tinyConfig(t *testing.T, workload string, trace bool) *runConfig {
	return &runConfig{workload: workload, seed: 7, seconds: 1, trace: trace,
		dir: t.TempDir(), traceDir: t.TempDir(), setups: 1, scale: 6}
}

// TestEveryMetricEmitted runs every workload untraced and traced and
// checks the result line carries exactly the metrics BENCHMARK.json
// names for that mode, with every check passing.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, w.Name, trace)
			out, err := run(w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			var buf bytes.Buffer
			if !report(&buf, cfg, out) {
				t.Fatalf("%s trace=%v: checks failed:\n%s", w.Name, trace, buf.String())
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w.Name, err)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: result %+v", w.Name, trace, res)
			}
			for _, m := range specs {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or wrong unit (%+v)", w.Name, trace, m.Name, got)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

func TestCheckerRejectsOffByOne(t *testing.T) {
	k := &sumChecker{want: []int64{100, 200, 300, 400, 500, 600, 700, 800}, rows: 64}
	if err := k.check(2, 300, 64); err != nil {
		t.Fatalf("exact aggregate rejected: %v", err)
	}
	for _, c := range []struct{ sum, count int64 }{{301, 64}, {299, 64}, {300, 63}, {300, 65}} {
		if k.check(2, c.sum, c.count) == nil {
			t.Errorf("aggregate (sum %d, count %d) accepted, want (300, 64)", c.sum, c.count)
		}
	}
}

// TestSelfTimesAddUp checks that the layers' self times of a request
// sum to its root span, whatever the nesting.
func TestSelfTimesAddUp(t *testing.T) {
	c := newClientTrace(time.Now())
	for i := 0; i < 3; i++ {
		root := c.start(kTxn)
		c.end(c.start(kBegin))
		for j := 0; j < 4; j++ {
			c.end(c.start(kStage))
		}
		c.start(kCommit) // left open: closing the root closes it
		c.end(root)
	}
	tt := mergeTraces([]*clientTrace{c})
	if tt.mismatch != 0 || tt.n[kTxn] != 3 || tt.n[kStage] != 12 {
		t.Fatalf("mismatch=%d txns=%d stages=%d", tt.mismatch, tt.n[kTxn], tt.n[kStage])
	}
	var self int64
	for k := range tt.selfNs {
		self += tt.selfNs[k]
	}
	if self != tt.durNs[kTxn] {
		t.Fatalf("self times sum to %dns, root spans to %dns", self, tt.durNs[kTxn])
	}
}

// TestBenchmarkJSONCurrent keeps the committed BENCHMARK.json equal to
// the metrics this program reports.
func TestBenchmarkJSONCurrent(t *testing.T) {
	want, err := benchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate with: go run . -spec > ../BENCHMARK.json")
	}
}
