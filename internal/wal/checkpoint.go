package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// Checkpoint file layout (all integers little-endian):
//
//	"ANKCKPT3"                    8-byte magic
//	ts u64                        checkpoint timestamp (snapshot
//	                              generation timestamp)
//	ntables u32
//	per table:
//	  slot u32, name (u32 len + bytes), rows u64, ncols u32
//	  (slot is the table's schema-log position — the stable index
//	  recovery addresses tables by. Names alone are ambiguous once
//	  DropTable exists: a checkpoint written before a drop can
//	  coexist with a re-created table of the same name, and its
//	  section must load into the dropped incarnation's slot, not the
//	  new one's.)
//	  per column: rows raw u64 data words, rows raw u64 wts words
//	  rows raw u64 birth words, rows raw u64 death words (the
//	  visibility arrays of growable tables; rows is the table's
//	  captured capacity, which may exceed its created size)
//	  dict: u32 count, then count strings (u32 len + bytes)
//	crc u32                       CRC32 of everything above
//	"ANKCKPTE"                    8-byte trailer magic
//
// The dictionary comes AFTER the column words on purpose: the dict is
// append-only and codes are assigned when a write is staged, so a
// dictionary read after every column capture is a superset of the
// codes any captured word can hold — a VARCHAR commit racing the
// checkpoint can never leave a dangling code in the checkpointed
// columns.
//
// The same body is a checkpoint file and a replica bootstrap:
// EncodeCheckpoint and DecodeCheckpoint stream it through any
// io.Writer / io.Reader, and WriteCheckpoint / LoadCheckpoint add only
// the file handling. The file is written to a temporary name and
// atomically renamed, so a crash mid-checkpoint leaves the previous
// checkpoint authoritative; the trailer plus whole-body CRC reject any
// body that somehow ends up incomplete.

var (
	ckptMagic   = []byte("ANKCKPT3")
	ckptTrailer = []byte("ANKCKPTE")
)

const ckptTrailerLen = 4 + 8 // crc u32 + trailer magic

// CheckpointWriter streams a checkpoint's body. It implements
// io.Writer (all writes feed the running CRC), with helpers for the
// metadata fields; column words are streamed through the storage
// layer's serialization directly into it.
type CheckpointWriter struct {
	w   io.Writer
	crc hash.Hash32
	err error
}

// Write implements io.Writer.
func (w *CheckpointWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n, err := w.w.Write(p)
	w.crc.Write(p[:n])
	w.err = err
	return n, err
}

func (w *CheckpointWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, _ = w.Write(b[:])
}

func (w *CheckpointWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, _ = w.Write(b[:])
}

func (w *CheckpointWriter) str(s string) {
	w.u32(uint32(len(s)))
	_, _ = w.Write([]byte(s))
}

// BeginTable writes one table's header (identity and geometry): slot
// is the table's schema-log position, the index recovery resolves the
// section by. The caller must follow with exactly cols (data, wts)
// column-word streams of rows words each, then FinishTable.
func (w *CheckpointWriter) BeginTable(slot int, name string, rows, cols int) error {
	w.u32(uint32(slot))
	w.str(name)
	w.u64(uint64(rows))
	w.u32(uint32(cols))
	return w.err
}

// FinishTable writes the table's dictionary, closing its section. The
// dictionary must be read AFTER the last column capture (see the
// layout comment: post-capture dictionaries are supersets of every
// captured code).
func (w *CheckpointWriter) FinishTable(dict []string) error {
	w.u32(uint32(len(dict)))
	for _, s := range dict {
		w.str(s)
	}
	return w.err
}

// EncodeCheckpoint writes one checkpoint body at ts to dst: the header,
// the ntables table sections stream writes, then the CRC seal and the
// trailer. It is the only checkpoint encoder — a checkpoint file and a
// replica bootstrap carry the same bytes. dst should be buffered: the
// metadata fields arrive a few bytes at a time.
func EncodeCheckpoint(dst io.Writer, ts uint64, ntables int, stream func(w *CheckpointWriter) error) error {
	w := &CheckpointWriter{w: dst, crc: crc32.NewIEEE()}
	_, _ = w.Write(ckptMagic)
	w.u64(ts)
	w.u32(uint32(ntables))
	if w.err != nil {
		return w.err
	}
	if err := stream(w); err != nil {
		return err
	}
	// Seal: CRC of everything written so far, then the trailer magic.
	w.u32(w.crc.Sum32())
	_, _ = w.Write(ckptTrailer)
	return w.err
}

// WriteCheckpoint atomically writes a checkpoint at ts: stream is
// called to write ntables table sections, then the file is CRC-sealed,
// fsynced and renamed into place. On success older checkpoints are
// removed and the WAL is truncated below ts — records above ts stay,
// which is exactly what replay needs on top of this checkpoint.
func (l *Log) WriteCheckpoint(ts uint64, ntables int, stream func(w *CheckpointWriter) error) error {
	if err := l.usable(); err != nil {
		// A poisoned log may hold in-memory state whose Commit already
		// returned an error; checkpointing it would make a failed
		// commit durable and truncate the WAL on top of a hole.
		return err
	}
	tmp := l.tmpCheckpointPath()
	f, err := l.fs.Create(tmp)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		_ = f.Close()
		_ = l.fs.Remove(tmp)
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := EncodeCheckpoint(bw, ts, ntables, stream); err != nil {
		return abort(err)
	}
	if err := bw.Flush(); err != nil {
		return abort(err)
	}
	if err := l.sync(f); err != nil {
		return abort(err)
	}
	if err := f.Close(); err != nil {
		return abort(err)
	}
	final := filepath.Join(l.dir, checkpointName(ts))
	if err := l.fs.Rename(tmp, final); err != nil {
		_ = l.fs.Remove(tmp)
		return err
	}
	if err := l.syncDir(l.dir); err != nil {
		return err
	}
	// The new checkpoint is durable: older ones are now dead weight.
	ckpts, err := l.checkpoints()
	if err != nil {
		return err
	}
	for _, c := range ckpts {
		if c.path != final {
			_ = l.fs.Remove(c.path)
		}
	}
	return l.TruncateBelow(ts)
}

// CheckpointReader streams a checkpoint body in O(buffer) memory:
// reads pull through a bufio window and feed the incremental CRC. It
// implements io.Reader for the raw column-word streams, with helpers
// mirroring the writer's metadata fields.
type CheckpointReader struct {
	br  *bufio.Reader
	crc hash.Hash32
	off int64 // body bytes consumed
}

// Read implements io.Reader.
func (r *CheckpointReader) Read(p []byte) (int, error) {
	n, err := r.br.Read(p)
	r.crc.Write(p[:n])
	r.off += int64(n)
	if err != nil && n > 0 {
		err = nil // deliver the bytes; the next call reports the error
	}
	if err != nil {
		return n, fmt.Errorf("wal: checkpoint truncated: %w", err)
	}
	return n, nil
}

// take consumes exactly n (at most replayBufSize) body bytes into a
// scratch slice valid until the next read.
func (r *CheckpointReader) take(n int) ([]byte, error) {
	b, err := r.br.Peek(n)
	if err != nil {
		return nil, fmt.Errorf("wal: checkpoint truncated: %w", err)
	}
	r.crc.Write(b)
	_, _ = r.br.Discard(n) // cannot fail: Peek buffered all n bytes
	r.off += int64(n)
	return b, nil
}

func (r *CheckpointReader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *CheckpointReader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// str reads a length-prefixed string. The string grows with the bytes
// that actually arrive, window by window, so a hostile length fails at
// the end of the stream instead of sizing an allocation.
func (r *CheckpointReader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for rem := int64(n); rem > 0; {
		k := min(rem, replayBufSize)
		b, err := r.take(int(k))
		if err != nil {
			return "", err
		}
		sb.Write(b)
		rem -= k
	}
	return sb.String(), nil
}

// TableHeader reads the next table section header written by
// BeginTable. The caller must follow with exactly cols (data, wts)
// column-word streams of rows words each, then TableDict.
func (r *CheckpointReader) TableHeader() (slot int, name string, rows, cols int, err error) {
	var s32 uint32
	if s32, err = r.u32(); err != nil {
		return
	}
	slot = int(s32)
	if name, err = r.str(); err != nil {
		return
	}
	var r64 uint64
	if r64, err = r.u64(); err != nil {
		return
	}
	rows = int(r64)
	var c32 uint32
	if c32, err = r.u32(); err != nil {
		return
	}
	cols = int(c32)
	return
}

// TableDict reads the table's trailing dictionary written by
// FinishTable. Like str, it grows only with strings actually received:
// every string costs at least its 4-byte length, so a hostile count
// fails at the end of the stream.
func (r *CheckpointReader) TableDict() ([]string, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	var dict []string
	for i := uint32(0); i < n; i++ {
		s, err := r.str()
		if err != nil {
			return nil, err
		}
		dict = append(dict, s)
	}
	return dict, nil
}

// DecodeCheckpoint reads one checkpoint body from src in O(buffer)
// memory: the header, then load for the ntables table sections, then
// the seal — the running CRC must match the sealed sum, the trailer
// magic must follow, and src must end right after it. It is the only
// checkpoint decoder, for files and replica bootstrap streams alike.
// load applies data before the verdict, which is safe because every
// caller discards the partially filled state on error (recovery fails
// Open; a replica drops the connection and bootstraps again). Every
// defect is a *CorruptError naming name and the body offset where it
// was found.
func DecodeCheckpoint(name string, src io.Reader, load func(ts uint64, ntables int, r *CheckpointReader) error) (uint64, error) {
	r := &CheckpointReader{br: bufio.NewReaderSize(src, replayBufSize), crc: crc32.NewIEEE()}
	fail := func(format string, args ...any) (uint64, error) {
		return 0, corruptCkpt(name, r.off, format, args...)
	}
	magic, err := r.take(len(ckptMagic))
	if err != nil {
		return fail("%v", err)
	}
	if string(magic) != string(ckptMagic) {
		return fail("bad header")
	}
	ts, err := r.u64()
	if err != nil {
		return fail("%v", err)
	}
	n32, err := r.u32()
	if err != nil {
		return fail("%v", err)
	}
	if err := load(ts, int(n32), r); err != nil {
		return fail("%v", err)
	}
	want := r.crc.Sum32()
	got, err := r.u32()
	if err != nil {
		return fail("%v", err)
	}
	if got != want {
		return fail("checksum mismatch")
	}
	if trailer, err := r.take(len(ckptTrailer)); err != nil || string(trailer) != string(ckptTrailer) {
		return fail("missing trailer")
	}
	switch _, err := r.br.ReadByte(); {
	case err == nil:
		return fail("bytes after the trailer")
	case err != io.EOF:
		return fail("%v", err)
	}
	return ts, nil
}

// LoadCheckpoint locates the newest checkpoint and streams it through
// DecodeCheckpoint in O(buffer) memory. The trailer magic is checked
// at the file's tail first: a file without it was never completely
// written and must not be streamed into the tables at all. ok is false
// when the directory holds no checkpoint (a valid state: recovery then
// replays the WAL from scratch). A present-but-corrupt checkpoint is
// an error, not a fallback — the WAL below its timestamp is already
// truncated, so silently ignoring it would lose data.
func (l *Log) LoadCheckpoint(load func(ts uint64, ntables int, r *CheckpointReader) error) (ts uint64, ok bool, err error) {
	ckpts, err := l.checkpoints()
	if err != nil || len(ckpts) == 0 {
		return 0, false, err
	}
	newest := ckpts[len(ckpts)-1]
	f, err := l.fs.Open(newest.path)
	if err != nil {
		return 0, false, err
	}
	defer func() { _ = f.Close() }()
	fi, err := f.Stat()
	if err != nil {
		return 0, false, err
	}
	minLen := int64(len(ckptMagic) + 8 + 4 + ckptTrailerLen)
	if fi.Size() < minLen {
		return 0, false, corruptCkpt(newest.path, 0, "bad header (%d bytes, want at least %d)", fi.Size(), minLen)
	}
	tail := make([]byte, len(ckptTrailer))
	if _, err := f.ReadAt(tail, fi.Size()-int64(len(tail))); err != nil {
		return 0, false, err
	}
	if string(tail) != string(ckptTrailer) {
		return 0, false, corruptCkpt(newest.path, fi.Size()-int64(len(tail)), "missing trailer")
	}
	l.notePeak(replayBufSize)
	ts, err = DecodeCheckpoint(newest.path, f, load)
	return ts, err == nil, err
}

func (l *Log) tmpCheckpointPath() string {
	return filepath.Join(l.dir, "checkpoint.tmp")
}

func checkpointName(ts uint64) string {
	return fmt.Sprintf("checkpoint-%020d.ckpt", ts)
}

type ckptref struct {
	path string
	ts   uint64
}

// checkpoints lists checkpoint files sorted by timestamp.
func (l *Log) checkpoints() ([]ckptref, error) {
	ents, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var out []ckptref
	for _, e := range ents {
		var ts uint64
		if n, _ := fmt.Sscanf(e.Name(), "checkpoint-%020d.ckpt", &ts); n != 1 {
			continue
		}
		out = append(out, ckptref{path: filepath.Join(l.dir, e.Name()), ts: ts})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ts < out[j].ts })
	return out, nil
}
