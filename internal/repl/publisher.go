package repl

import (
	"sync"
	"sync/atomic"
)

// Record is one replication stream element: a WAL record payload
// tagged with its frame type and, for commit records, the commit
// timestamp that gates its release.
type Record struct {
	TS      uint64  // commit timestamp; 0 for loads and schema records
	Type    MsgType // MsgCommit, MsgLoad, MsgSchema or MsgHeartbeat
	Payload []byte
}

// Publisher turns the WAL's append hooks into per-subscriber record
// streams that are safe to publish, in the exact order a replica must
// apply them.
//
// Ordering contract. Stage is called from the WAL append hooks, under
// the shard append lock, the moment a record is durable — which is
// strictly before the commit pipeline passes the record's timestamp to
// the oracle. Advance is called from the oracle's completion hook with
// each watermark step. Staged records release to subscribers in stage
// order (FIFO), but a commit record is held until the watermark covers
// its timestamp. Two consequences:
//
//   - Per column and per visibility column the stream is in timestamp
//     order (those records share a commit shard, whose appends are
//     FIFO), so a single-threaded applier reproduces primary state.
//   - When a heartbeat carrying watermark W reaches a subscriber,
//     every record with TS <= W precedes it in that subscriber's
//     stream: the watermark only reached W after those records
//     completed, completion implies they were staged, and the FIFO
//     released them before the heartbeat was enqueued. A replica that
//     applied everything before the heartbeat may publish W.
//
// Schema and load records carry no timestamp and release immediately
// in stage order, preserving their position relative to the commits
// around them (a table creation precedes every commit that addresses
// it; a table-DDL record follows every commit its timestamp covers,
// because the primary only logs DDL while holding every shard lock).
//
// Flow control is per subscriber: a bounded channel, non-blocking
// sends. A subscriber that falls a full buffer behind is disconnected
// (its channel closes) rather than allowed to stall the primary's
// commit path — the replica reconnects and resumes from its applied
// watermark, or re-bootstraps if the retained history no longer
// reaches back that far.
type Publisher struct {
	mu    sync.Mutex
	queue []Record // staged, awaiting watermark release
	// history retains released records for reconnect resume: a ring of
	// at most histCap records that grows by append until full, then
	// overwrites its oldest entry, histHead, so a release past the cap
	// costs O(1).
	history  []histRec
	histHead int
	histCap  int
	// histFloor is the highest eviction floor of any record evicted from
	// history: a resume is possible only from AfterTS >= histFloor,
	// because a replica further behind may never have received an
	// evicted record (see histRec.floor).
	histFloor uint64
	subs      map[*Subscriber]struct{}
	closed    bool

	// oracleW is the newest completion watermark Advance has seen — the
	// release gate for staged commits.
	oracleW uint64

	// watermark is the *published* watermark: the newest timestamp all
	// of whose covered records have been released to every live
	// subscriber. It trails oracleW whenever FIFO head-of-line blocking
	// holds covered records behind a not-yet-completed commit, so an
	// out-of-band reader (periodic heartbeats) can never announce a
	// timestamp ahead of a subscriber's stream contents.
	watermark atomic.Uint64

	frames atomic.Uint64 // records released to the stream
	drops  atomic.Uint64 // subscribers disconnected by overflow
}

// histRec is one retained history record plus the resume floor its
// eviction imposes: the smallest AfterTS that still proves a resuming
// replica received the record. For a commit record that is its own
// timestamp — an applied watermark at or above it implies the covered
// record was received and applied. A timestamp-less schema/load record
// offers no such proof through the applied watermark alone, so its
// floor is one past the published watermark at release time: only a
// heartbeat enqueued after the release can carry a higher watermark,
// and the FIFO stream puts the record before that heartbeat — a
// replica acking past the floor necessarily received it. Evicting with
// a floor of just the record's own properties would let Resume replay
// a suffix missing an evicted schema record, after which the replica
// silently skips every commit addressing the unknown table while still
// acking watermarks (silent permanent divergence).
type histRec struct {
	rec   Record
	floor uint64
}

// defaultHistCap bounds the retained record history (reconnect resume
// window) when NewPublisher is given no explicit capacity.
const defaultHistCap = 1 << 16

// NewPublisher returns a publisher retaining up to histCap released
// records for reconnect resume (<= 0 selects the default).
func NewPublisher(histCap int) *Publisher {
	if histCap <= 0 {
		histCap = defaultHistCap
	}
	return &Publisher{histCap: histCap, subs: map[*Subscriber]struct{}{}}
}

// Stage enqueues one durable record. Called from the WAL append hooks
// under the shard append lock: it must stay cheap (slice append plus
// non-blocking channel sends).
func (p *Publisher) Stage(rec Record) {
	p.mu.Lock()
	p.queue = append(p.queue, rec)
	p.drainLocked()
	p.mu.Unlock()
}

// Advance moves the release gate to completion watermark ts (monotone;
// lower values are ignored), releases every staged record it covers,
// and — when the published watermark advanced — sends an in-band
// heartbeat carrying it. Called from the oracle's completion hook.
func (p *Publisher) Advance(ts uint64) {
	p.mu.Lock()
	if ts > p.oracleW {
		p.oracleW = ts
		before := p.watermark.Load()
		p.drainLocked()
		if w := p.watermark.Load(); w > before {
			for s := range p.subs {
				// Best-effort: a skipped heartbeat is re-announced by the
				// next advance or the sender's periodic heartbeat; never a
				// reason to drop a subscriber.
				select {
				case s.ch <- Record{Type: MsgHeartbeat, TS: w}:
				default:
				}
			}
		}
	}
	p.mu.Unlock()
}

// drainLocked releases the queue prefix the completion watermark
// covers, then recomputes the published watermark: the oracle
// watermark, capped below the oldest still-held commit — a held record
// behind a head-of-line block must never be announced as applied.
func (p *Publisher) drainLocked() {
	n := 0
	for n < len(p.queue) && (p.queue[n].TS == 0 || p.queue[n].TS <= p.oracleW) {
		p.emitLocked(p.queue[n])
		n++
	}
	if n > 0 {
		// Shift the held remainder (usually empty) to the front so the
		// queue's backing array is reused instead of re-grown per record.
		rest := copy(p.queue, p.queue[n:])
		clear(p.queue[rest:])
		p.queue = p.queue[:rest]
	}
	pub := p.oracleW
	for _, rec := range p.queue {
		if rec.TS > 0 && rec.TS-1 < pub {
			pub = rec.TS - 1
		}
	}
	if pub > p.watermark.Load() {
		p.watermark.Store(pub)
	}
}

// emitLocked fans one released record out to every subscriber and
// retains it in the resume history.
func (p *Publisher) emitLocked(rec Record) {
	p.frames.Add(1)
	floor := rec.TS
	if rec.TS == 0 {
		// Schema/load record: pin the eviction floor one past the
		// published watermark as of this release (see histRec). The read
		// deliberately precedes the enclosing drain's recompute: any
		// heartbeat carrying a watermark above the pre-drain value is
		// enqueued after this record, which is exactly the ordering the
		// floor's safety argument needs.
		floor = p.watermark.Load() + 1
	}
	h := histRec{rec: rec, floor: floor}
	if len(p.history) < p.histCap {
		p.history = append(p.history, h)
	} else {
		// Full: the new record overwrites the oldest, whose payload
		// becomes collectable.
		if old := p.history[p.histHead].floor; old > p.histFloor {
			p.histFloor = old
		}
		p.history[p.histHead] = h
		p.histHead = (p.histHead + 1) % len(p.history)
	}
	for s := range p.subs {
		select {
		case s.ch <- rec:
		default:
			// Overflow: the subscriber is a full buffer behind. Cut it
			// loose — stalling Stage would stall the primary's commit
			// path, which the bounded buffer exists to prevent.
			p.drops.Add(1)
			delete(p.subs, s)
			s.lost.Store(true)
			close(s.ch)
		}
	}
}

// Subscriber is one replica stream attachment. Receive from C; a
// closed C means the publisher shut down or this subscriber overflowed
// (Lost reports which).
type Subscriber struct {
	C    <-chan Record
	ch   chan Record
	lost atomic.Bool
}

// Lost reports whether the subscriber was disconnected for falling
// behind (rather than by publisher shutdown).
func (s *Subscriber) Lost() bool { return s.lost.Load() }

// Attach subscribes to the live stream with a buffer of buf records
// (<= 0 selects 4096), receiving every record released after the call.
// The caller must attach *before* capturing a bootstrap snapshot:
// records released between attach and capture are duplicated into the
// snapshot, which replay-by-timestamp makes harmless, while the
// reverse order would lose them.
func (p *Publisher) Attach(buf int) *Subscriber {
	if buf <= 0 {
		buf = 4096
	}
	s := &Subscriber{ch: make(chan Record, buf)}
	s.C = s.ch
	p.mu.Lock()
	if p.closed {
		close(s.ch)
		s.lost.Store(true)
	} else {
		p.subs[s] = struct{}{}
	}
	p.mu.Unlock()
	return s
}

// Resume attaches a reconnecting replica that has already applied
// everything at or below afterTS: the retained history suffix above
// afterTS (plus its timestamp-less schema/load records, which re-apply
// idempotently) is preloaded into the subscriber's buffer, and the
// live stream follows. Returns (nil, false) when the history no longer
// reaches back to afterTS or the suffix exceeds buf — the replica must
// re-bootstrap from a snapshot instead.
func (p *Publisher) Resume(afterTS uint64, buf int) (*Subscriber, bool) {
	if buf <= 0 {
		buf = 4096
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || afterTS < p.histFloor {
		return nil, false
	}
	var replay []Record
	for i := range p.history {
		// Oldest to newest: the ring starts at histHead.
		h := p.history[(p.histHead+i)%len(p.history)]
		if h.rec.TS == 0 || h.rec.TS > afterTS {
			replay = append(replay, h.rec)
		}
	}
	if len(replay) >= buf {
		return nil, false
	}
	s := &Subscriber{ch: make(chan Record, buf)}
	s.C = s.ch
	for _, rec := range replay {
		s.ch <- rec
	}
	// The preloaded suffix ends at the current watermark by
	// construction; announce it so the replica publishes its catch-up.
	if w := p.watermark.Load(); w > afterTS {
		s.ch <- Record{Type: MsgHeartbeat, TS: w}
	}
	p.subs[s] = struct{}{}
	return s, true
}

// Detach removes a subscriber (idempotent; safe after overflow).
func (p *Publisher) Detach(s *Subscriber) {
	p.mu.Lock()
	if _, ok := p.subs[s]; ok {
		delete(p.subs, s)
		close(s.ch)
	}
	p.mu.Unlock()
}

// Close disconnects every subscriber and refuses new ones.
func (p *Publisher) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		for s := range p.subs {
			delete(p.subs, s)
			close(s.ch)
		}
	}
	p.mu.Unlock()
}

// Watermark returns the newest published watermark: every record it
// covers has been released to every live subscriber's buffer, so it is
// safe to announce out of band (periodic heartbeats).
func (p *Publisher) Watermark() uint64 { return p.watermark.Load() }

// Subscribers returns the live subscriber count.
func (p *Publisher) Subscribers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.subs)
}

// Frames returns the cumulative count of records released to the
// stream (per record, not per subscriber).
func (p *Publisher) Frames() uint64 { return p.frames.Load() }

// Drops returns the cumulative count of subscribers disconnected for
// falling behind.
func (p *Publisher) Drops() uint64 { return p.drops.Load() }
