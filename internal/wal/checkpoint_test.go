package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// testSection is one checkpoint table section in the layout the engine
// writes: header, (2*cols + 2) word streams of rows words each (data
// and wts per column, then birth and death), then the dictionary.
type testSection struct {
	slot, rows, cols int
	name             string
	words            []uint64
	dict             []string
}

func writeSections(secs []testSection) func(w *CheckpointWriter) error {
	return func(w *CheckpointWriter) error {
		for _, s := range secs {
			if err := w.BeginTable(s.slot, s.name, s.rows, s.cols); err != nil {
				return err
			}
			for _, v := range s.words {
				w.u64(v)
			}
			if err := w.FinishTable(s.dict); err != nil {
				return err
			}
		}
		return nil
	}
}

func readSections(out *[]testSection) func(ts uint64, ntables int, r *CheckpointReader) error {
	return func(_ uint64, ntables int, r *CheckpointReader) error {
		for i := 0; i < ntables; i++ {
			var s testSection
			var err error
			if s.slot, s.name, s.rows, s.cols, err = r.TableHeader(); err != nil {
				return err
			}
			// Words are read one by one: a hostile geometry fails at the
			// end of the input instead of sizing a buffer.
			n := uint64(s.rows) * (2*uint64(s.cols) + 2)
			for k := uint64(0); k < n; k++ {
				v, err := r.u64()
				if err != nil {
					return err
				}
				s.words = append(s.words, v)
			}
			if s.dict, err = r.TableDict(); err != nil {
				return err
			}
			*out = append(*out, s)
		}
		return nil
	}
}

func testBody(t testing.TB) ([]byte, []testSection) {
	t.Helper()
	secs := []testSection{
		{slot: 0, name: "acct", rows: 3, cols: 1, words: []uint64{1, 2, 3, 5, 5, 5, 0, 0, 0, 0, 7, 0}, dict: []string{"a", "bc"}},
		{slot: 2, name: "empty", rows: 0, cols: 4},
	}
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, 42, len(secs), writeSections(secs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), secs
}

func decodeBody(src []byte) (uint64, []testSection, error) {
	var got []testSection
	ts, err := DecodeCheckpoint("stream", bytes.NewReader(src), readSections(&got))
	return ts, got, err
}

// TestRecoveryStreamDecoder drives the one checkpoint decoder from a
// byte stream (the replica bootstrap's shape) and checks every
// rejection the file path relies on: each strict prefix is truncated,
// any flipped byte fails (a flipped word byte as a checksum mismatch),
// and a byte after the trailer is refused.
func TestRecoveryStreamDecoder(t *testing.T) {
	body, want := testBody(t)
	for name, src := range map[string]io.Reader{
		"whole":    bytes.NewReader(body),
		"one-byte": iotest.OneByteReader(bytes.NewReader(body)),
	} {
		var got []testSection
		ts, err := DecodeCheckpoint(name, src, readSections(&got))
		if err != nil || ts != 42 {
			t.Fatalf("%s: decode = %d, %v", name, ts, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: sections = %+v, want %+v", name, got, want)
		}
	}
	for n := 0; n < len(body); n++ {
		if _, _, err := decodeBody(body[:n]); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("%d-byte prefix of %d: err = %v", n, len(body), err)
		}
	}
	for i := range body {
		flipped := bytes.Clone(body)
		flipped[i] ^= 0x40
		if _, _, err := decodeBody(flipped); err == nil {
			t.Fatalf("flipped byte %d decoded", i)
		}
	}
	// The first data word of the first section sits right after its
	// header: magic 8 + ts 8 + ntables 4 + slot 4 + name 4+4 + rows 8 +
	// cols 4.
	flipped := bytes.Clone(body)
	flipped[44] ^= 1
	if _, _, err := decodeBody(flipped); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("flipped word byte: err = %v, want checksum mismatch", err)
	}
	if _, _, err := decodeBody(append(bytes.Clone(body), 0)); err == nil || !strings.Contains(err.Error(), "after the trailer") {
		t.Fatalf("trailing byte: err = %v", err)
	}
}

// TestRecoveryStreamDecoderHostileLengths: a string length or
// dictionary count far beyond the bytes received fails at the end of
// the input without allocating for the claim.
func TestRecoveryStreamDecoderHostileLengths(t *testing.T) {
	head := append([]byte(nil), ckptMagic...)
	head = binary.LittleEndian.AppendUint64(head, 1)
	head = binary.LittleEndian.AppendUint32(head, 1) // ntables
	head = binary.LittleEndian.AppendUint32(head, 0) // slot
	name := binary.LittleEndian.AppendUint32(bytes.Clone(head), 1<<31)
	name = append(name, "short"...)
	dict := binary.LittleEndian.AppendUint32(bytes.Clone(head), 1)
	dict = append(dict, 't')
	dict = binary.LittleEndian.AppendUint64(dict, 0) // rows
	dict = binary.LittleEndian.AppendUint32(dict, 0) // cols
	dict = binary.LittleEndian.AppendUint32(dict, 1<<31)
	dict = binary.LittleEndian.AppendUint32(dict, 1)
	dict = append(dict, 'x')
	for label, p := range map[string][]byte{"name": name, "dict": dict} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := decodeBody(p)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: hostile length accepted", label)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Fatalf("%s: rejected decode allocated %d bytes", label, n)
		}
	}
}

// FuzzRecoveryCheckpointBody: the decoder never panics, and any body
// it accepts re-encodes to exactly the same bytes.
func FuzzRecoveryCheckpointBody(f *testing.F) {
	body, _ := testBody(f)
	f.Add(body)
	f.Add([]byte{})
	f.Add(append(bytes.Clone(body), 0))
	f.Fuzz(func(t *testing.T, p []byte) {
		ts, secs, err := decodeBody(p)
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := EncodeCheckpoint(&again, ts, len(secs), writeSections(secs)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), p) {
			t.Fatalf("accepted %x but re-encodes as %x", p, again.Bytes())
		}
	})
}
