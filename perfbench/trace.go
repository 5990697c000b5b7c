package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanKind names a span the benchmark records around one public call
// into the engine (children) or around one whole request (roots).
type spanKind uint8

const (
	kTxn     spanKind = iota // root: OLTP txn, Begin → Commit return
	kBegin                   // Begin(OLTP)
	kStage                   // Get / Set / Insert / Delete inside an OLTP txn
	kCommit                  // Txn.Commit of an OLTP txn
	kQuery                   // root: analyst query, Begin(OLAP) → Commit return
	kPin                     // Begin(OLAP): pins a snapshot generation
	kCapture                 // first-touch Get: creates the column snapshot
	kRun                     // Query.Run
	kRelease                 // Commit of an OLAP txn: unpins the generation
	numKinds
)

// kindInfo maps each span to its name and to the layer its self time is
// charged to. A root's self time — the part of a request no engine call
// covers — is charged to "other".
var kindInfo = [numKinds]struct{ name, layer string }{
	kTxn:     {"txn", "other"},
	kBegin:   {"txn.begin", "txn"},
	kStage:   {"txn.stage", "txn"},
	kCommit:  {"commit.call", "commit"},
	kQuery:   {"query", "other"},
	kPin:     {"snapshot.pin", "snapshot"},
	kCapture: {"snapshot.capture", "snapshot"},
	kRun:     {"query.run", "query"},
	kRelease: {"snapshot.release", "snapshot"},
}

type span struct {
	start, end int64 // ns since the tracer's epoch
	req        uint32
	parent     int32 // index of the parent within its request; -1 for a root
	kind       spanKind
}

// Spans of every keepEvery-th request are kept for the trace file, up
// to keepCap spans per client; all requests feed the aggregates.
const (
	keepEvery = 16
	keepCap   = 1 << 16
)

// clientTrace records the spans of one client goroutine. A nil
// *clientTrace records nothing, which is how untraced runs call it.
type clientTrace struct {
	epoch time.Time
	req   uint32
	top   int32
	cur   []span // spans of the request in flight
	child []int64

	kept      []span
	selfNs    [numKinds]int64 // self time per span kind
	durNs     [numKinds]int64 // total duration per span kind
	n         [numKinds]int64 // spans per kind
	commitDur []int64         // kCommit durations, for percentiles
	mismatch  int             // requests whose self times missed the root span
}

func newClientTrace(epoch time.Time) *clientTrace {
	return &clientTrace{epoch: epoch, top: -1}
}

func (c *clientTrace) start(k spanKind) int32 {
	if c == nil {
		return -1
	}
	i := int32(len(c.cur))
	c.cur = append(c.cur, span{start: int64(time.Since(c.epoch)), req: c.req, parent: c.top, kind: k})
	c.top = i
	return i
}

// end closes span i and any span still open beneath it (an error path
// that returned early). Closing a root finishes the request.
func (c *clientTrace) end(i int32) {
	if c == nil || i < 0 {
		return
	}
	now := int64(time.Since(c.epoch))
	for j := int32(len(c.cur)) - 1; j >= i; j-- {
		if c.cur[j].end == 0 {
			c.cur[j].end = now
		}
	}
	c.top = c.cur[i].parent
	if c.top < 0 {
		c.finish()
	}
}

// finish charges each span's self time — its duration minus the part
// its direct children cover — so a request's self times sum to its root.
func (c *clientTrace) finish() {
	spans := c.cur
	c.child = c.child[:0]
	for range spans {
		c.child = append(c.child, 0)
	}
	for _, s := range spans {
		if s.parent >= 0 {
			c.child[s.parent] += s.end - s.start
		}
	}
	var selfSum int64
	for i, s := range spans {
		d := s.end - s.start
		self := d - c.child[i]
		selfSum += self
		c.selfNs[s.kind] += self
		c.durNs[s.kind] += d
		c.n[s.kind]++
		if s.kind == kCommit {
			c.commitDur = append(c.commitDur, d)
		}
	}
	if root := spans[0]; selfSum != root.end-root.start {
		c.mismatch++
	}
	if c.req%keepEvery == 0 && len(c.kept)+len(spans) <= keepCap {
		c.kept = append(c.kept, spans...)
	}
	c.req++
	c.cur = c.cur[:0]
	c.top = -1
}

// traceTotals merges the client traces of one traced phase.
type traceTotals struct {
	selfNs, durNs, n [numKinds]int64
	commitDur        []int64
	mismatch         int
}

func mergeTraces(cs []*clientTrace) traceTotals {
	var t traceTotals
	for _, c := range cs {
		if c == nil {
			continue
		}
		for k := range t.n {
			t.selfNs[k] += c.selfNs[k]
			t.durNs[k] += c.durNs[k]
			t.n[k] += c.n[k]
		}
		t.commitDur = append(t.commitDur, c.commitDur...)
		t.mismatch += c.mismatch
	}
	return t
}

// meanUs is the mean duration of spans of kind k per request of root
// kind r (so staging spans add up per txn), in microseconds.
func (t *traceTotals) meanUs(k, r spanKind) float64 {
	if t.n[r] == 0 {
		return 0
	}
	return float64(t.durNs[k]) / float64(t.n[r]) / 1e3
}

// selfByLayer sums self time per layer over requests of root kind r and
// the span kinds given, in microseconds per request.
func (t *traceTotals) selfByLayer(r spanKind, kinds ...spanKind) map[string]float64 {
	out := map[string]float64{}
	if t.n[r] == 0 {
		return out
	}
	for _, k := range append([]spanKind{r}, kinds...) {
		out[kindInfo[k].layer] += float64(t.selfNs[k]) / float64(t.n[r]) / 1e3
	}
	return out
}

// writeTrace writes the kept spans as JSON lines: one object per span
// with its name, start and end, its parent's id and its request id.
func writeTrace(path string, cs []*clientTrace) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type rec struct {
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int    `json:"parent"`
		Req    string `json:"req"`
	}
	id := 0
	for ci, c := range cs {
		if c == nil {
			continue
		}
		// Parents precede their children within a request, so a parent's
		// id is the id of the request's first span plus its index.
		first := 0
		for _, s := range c.kept {
			if s.parent < 0 {
				first = id
			}
			parent := -1
			if s.parent >= 0 {
				parent = first + int(s.parent)
			}
			if err := enc.Encode(rec{id, kindInfo[s.kind].name, s.start, s.end, parent,
				fmt.Sprintf("c%d-%d", ci, s.req)}); err != nil {
				_ = f.Close()
				return id, err
			}
			id++
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return id, err
	}
	return id, f.Close()
}
