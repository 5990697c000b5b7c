package ankerdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"testing"

	"ankerdb/internal/storage"
)

// frameProxy forwards TCP connections to an upstream server and
// records the largest frame body the upstream sends (frames are
// [len u32][crc u32][body]), so a test can bound what a bootstrap puts
// on the wire.
type frameProxy struct {
	ln      net.Listener
	maxBody atomic.Uint32
}

func startFrameProxy(t *testing.T, upstream string) *frameProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &frameProxy{ln: ln}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				_ = down.Close()
				continue
			}
			go func() {
				_, _ = io.Copy(up, down)
				_ = up.Close()
			}()
			go p.pump(down, up)
		}
	}()
	return p
}

// pump copies upstream frames downstream, noting each body length.
func (p *frameProxy) pump(down, up net.Conn) {
	defer func() { _ = down.Close() }()
	br := bufio.NewReader(up)
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		for cur := p.maxBody.Load(); n > cur && !p.maxBody.CompareAndSwap(cur, n); cur = p.maxBody.Load() {
		}
		if _, err := down.Write(hdr[:]); err != nil {
			return
		}
		if _, err := io.CopyN(down, br, int64(n)); err != nil {
			return
		}
	}
}

// assertSameRows fails unless tab holds the same rows on want and got:
// per row slot the same birth and death stamps, for rows never
// reclaimed the same column values (VARCHAR compared as strings), and
// the same row allocator (high-water mark and free list).
func assertSameRows(t *testing.T, want, got *DB, tab string) {
	t.Helper()
	wt, gt := want.tables[tab], got.tables[tab]
	if wc, gc := wt.st.Capacity(), gt.st.Capacity(); wc != gc {
		t.Fatalf("%s capacity %d, want %d", tab, gc, wc)
	}
	same := func(w, g *column, row int) bool {
		if w.def.Type == Varchar {
			return w.dict.Decode(w.data.Get(row)) == g.dict.Decode(g.data.Get(row))
		}
		return w.data.GetU(row) == g.data.GetU(row)
	}
	wb, wd, gb, gd := wt.st.Birth(), wt.st.Death(), gt.st.Birth(), gt.st.Death()
	for row := 0; row < wt.st.Capacity(); row++ {
		if wb.GetU(row) != gb.GetU(row) || wd.GetU(row) != gd.GetU(row) {
			t.Fatalf("%s row %d: birth/death %d/%d, want %d/%d", tab, row,
				gb.GetU(row), gd.GetU(row), wb.GetU(row), wd.GetU(row))
		}
		if wb.GetU(row) == storage.NeverTS {
			continue
		}
		for i, wc := range wt.cols {
			if !same(wc, gt.cols[i], row) {
				t.Fatalf("%s.%s row %d differs from the primary", tab, wc.def.Name, row)
			}
		}
	}
	wfree, gfree := slices.Clone(wt.free), slices.Clone(gt.free)
	slices.Sort(wfree)
	slices.Sort(gfree)
	if wt.next != gt.next || !slices.Equal(wfree, gfree) {
		t.Fatalf("%s allocator next=%d free=%v, want next=%d free=%v", tab, gt.next, gfree, wt.next, wfree)
	}
}

// TestReplicaBootstrapStreamsLargeTable bootstraps a durable replica
// from a table whose checkpoint body spans hundreds of chunks (>= 32
// MiB: VARCHAR values, deleted rows, reclaimed free-list rows and an
// index). No frame on the wire may exceed the 64 KiB chunk cap, the
// replica must equal the primary row for row, and the replica's
// directory must recover the same state on restart.
func TestReplicaBootstrapStreamsLargeTable(t *testing.T) {
	const chunkCap = 64 << 10
	rows := 1 << 19 // 3 columns + birth/death: 64 B a row, 32 MiB
	if raceEnabled {
		// The race detector multiplies every per-word pass ~20x; 4 MiB
		// still spans 64 chunks.
		rows = 1 << 16
	}
	p := openPrimary(t, WithInitialSchema(NewSchema("big").Int64("k").Indexed(Ordered).Varchar("s").Int64("v").Build(), rows))
	ks, vs, ss := make([]int64, rows), make([]int64, rows), make([]string, rows)
	for i := range ks {
		ks[i], vs[i], ss[i] = int64(i), int64(i*7), fmt.Sprintf("s%d", i%1000)
	}
	for _, err := range []error{p.Load("big", "k", ks), p.Load("big", "v", vs), p.LoadStrings("big", "s", ss)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	txn := func(fn func(tx *Txn) error) {
		t.Helper()
		tx, err := p.Begin(OLTP)
		if err != nil {
			t.Fatal(err)
		}
		if err := fn(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	deleteRows := func(lo, hi int) {
		txn(func(tx *Txn) error {
			for row := lo; row < hi; row++ {
				if err := tx.Delete("big", row); err != nil {
					return err
				}
			}
			return nil
		})
	}
	// Deleted, then reclaimed into the free list once no reader can
	// see them (rotate the pinned generation first).
	deleteRows(1000, 1200)
	if tx, err := p.Begin(OLAP); err == nil {
		_ = tx.Commit()
	}
	p.Vacuum()
	// Inserts reuse part of the free list; updates version strings and
	// indexed keys; a later delete leaves dead, unreclaimed rows.
	txn(func(tx *Txn) error {
		for i := 0; i < 50; i++ {
			if _, err := tx.Insert("big", map[string]any{"k": int64(-i), "s": fmt.Sprintf("new%d", i), "v": int64(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	txn(func(tx *Txn) error {
		for row := 0; row < 20; row++ {
			if err := tx.SetString("big", "s", row, fmt.Sprintf("updated%d", row)); err != nil {
				return err
			}
			if err := tx.Set("big", "k", row+20, int64(rows+row)); err != nil {
				return err
			}
		}
		return nil
	})
	deleteRows(5000, 5010)
	if free := len(p.tables["big"].free); free != 150 {
		t.Fatalf("primary free list holds %d rows, want 150 reclaimed and not reused", free)
	}

	proxy := startFrameProxy(t, p.ServeAddr())
	dir := t.TempDir()
	r, err := Open(WithCostModel(ZeroCost), WithDurability(dir), WithSyncPolicy(SyncNone), WithReplicaOf(proxy.ln.Addr().String()))
	if err != nil {
		t.Fatalf("open replica: %v", err)
	}
	waitReplicaTS(t, r, p.oracle.Completed())
	if got := proxy.maxBody.Load(); got > chunkCap {
		t.Fatalf("largest frame on the wire: %d bytes, chunk cap %d", got, chunkCap)
	}
	assertSameRows(t, p, r, "big")
	lookup := func(db *DB, v int64) []int {
		t.Helper()
		tx, err := db.Begin(OLAP)
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Abort()
		got, err := tx.Lookup("big", "k", v)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	probes := []int64{0, 20, 1100, 5005, -3, int64(rows) + 5, int64(rows) - 1}
	for _, v := range probes {
		if want, got := lookup(p, v), lookup(r, v); !slices.Equal(got, want) {
			t.Fatalf("replica Lookup(k=%d) = %v, want %v", v, got, want)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// The replica's own directory recovers the bootstrapped state.
	rec, err := Open(WithCostModel(ZeroCost), WithDurability(dir), WithSyncPolicy(SyncNone))
	if err != nil {
		t.Fatalf("reopen replica directory: %v", err)
	}
	defer rec.Close()
	assertSameRows(t, p, rec, "big")
	if n := rec.RecoveryReport().RebuiltIndexes; n != 1 {
		t.Fatalf("recovery rebuilt %d indexes, want 1", n)
	}
	for _, v := range probes {
		if want, got := lookup(p, v), lookup(rec, v); !slices.Equal(got, want) {
			t.Fatalf("recovered Lookup(k=%d) = %v, want %v", v, got, want)
		}
	}
}
