package ir

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"iqn/internal/dataset"
)

// loadFile reads an IQDX file fully into memory, the way a restarted
// in-memory index is restored.
func loadFile(path string) (*Index, error) {
	d, err := OpenDisk(path)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return d.Materialize(), nil
}

func TestSnapshotRoundTrip(t *testing.T) {
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 300, Seed: 9})
	x := NewIndex()
	x.SetScoring(ScoringBM25)
	for _, d := range corpus.Docs {
		x.AddDocument(d.ID, d.Terms)
	}
	x.Finalize()

	path := filepath.Join(t.TempDir(), "index.iqdx")
	if err := x.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := loadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs() != x.NumDocs() || got.TermSpaceSize() != x.TermSpaceSize() {
		t.Fatalf("restored shape %d/%d, want %d/%d",
			got.NumDocs(), got.TermSpaceSize(), x.NumDocs(), x.TermSpaceSize())
	}
	if got.Scoring() != ScoringBM25 {
		t.Fatalf("scoring lost: %v", got.Scoring())
	}
	// Queries give identical rankings.
	q := dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: 3, Seed: 9})
	for _, query := range q {
		want := x.Search(query.Terms, 20, Disjunctive)
		have := got.Search(query.Terms, 20, Disjunctive)
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("query %v results differ after restore", query.Terms)
		}
	}
	// Restored indexes are immutable like any finalized index.
	mustPanic(t, func() { got.AddDocument(999, []string{"late"}) })
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index.iqdx")
	x := NewIndex()
	x.AddText(1, "forest fire safety")
	x.AddText(2, "pest control")
	x.Finalize()
	if err := x.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// No temp file remains.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	got, err := loadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.DocFreq("forest") != 1 || got.NumDocs() != 2 {
		t.Fatalf("restored index wrong: df=%d docs=%d", got.DocFreq("forest"), got.NumDocs())
	}
}

func TestLoadFileErrors(t *testing.T) {
	if _, err := loadFile(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
	// Anything that is not IQDX, short or long, is refused by name.
	path := filepath.Join(t.TempDir(), "garbage")
	for _, content := range []string{"x", "not a snapshot", strings.Repeat("x", 100)} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadFile(path); err == nil || !strings.Contains(err.Error(), "not an IQDX index") {
			t.Fatalf("%d-byte garbage load error = %v", len(content), err)
		}
	}
}

func TestChecksumDetectsTruncationAndCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index.iqdx")
	x := NewIndex()
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 120, Seed: 4})
	for _, d := range corpus.Docs {
		x.AddDocument(d.ID, d.Terms)
	}
	x.Finalize()
	if err := x.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := loadFile(path); err != nil {
		t.Fatalf("pristine snapshot failed to load: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, damaged := range map[string][]byte{
		// The tail is gone: no footer to trust.
		"cut tail": data[:len(data)-10],
		// Bytes dropped from the middle: the footer survives, so only
		// the offset and CRC checks can catch it.
		"cut middle": append(append([]byte(nil), data[:len(data)/2]...), data[len(data)/2+8:]...),
		// One payload bit-flip: every length matches, the CRC must not.
		"bit flip": func() []byte {
			flip := append([]byte(nil), data...)
			flip[len(flip)/3] ^= 0xff
			return flip
		}(),
	} {
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := loadFile(path)
		if err == nil {
			t.Fatalf("%s: damaged snapshot loaded", name)
		}
		msg := err.Error()
		if !strings.Contains(msg, "truncated") && !strings.Contains(msg, "corrupt") {
			t.Fatalf("%s: load error %q names neither truncation nor corruption", name, msg)
		}
	}
}

// TestOldSnapshotVersionRejected feeds loadFile a file shaped like the
// retired gob snapshot (opaque payload, IQSNAP trailer): it is refused
// with the re-index hint, not half-decoded.
func TestOldSnapshotVersionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.snap")
	old := append([]byte(strings.Repeat("\x2a\xff\x81", 40)), "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x78IQSNAP\x00\x02"...)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := loadFile(path)
	if err == nil || !strings.Contains(err.Error(), "not an IQDX index: re-index and save again") {
		t.Fatalf("old snapshot error = %v", err)
	}
}

// TestLoadFileAutoDetectsDiskIndex loads a file written straight by
// WriteDiskIndex: OpenDisk recognises the IQDX magic and the materialized
// index answers like the original.
func TestLoadFileAutoDetectsDiskIndex(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index.iqdx")
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 200, Seed: 11})
	x := NewIndex()
	for _, d := range corpus.Docs {
		x.AddDocument(d.ID, d.Terms)
	}
	x.Finalize()
	if err := WriteDiskIndex(x, path); err != nil {
		t.Fatal(err)
	}
	got, err := loadFile(path)
	if err != nil {
		t.Fatalf("loading the disk-index format: %v", err)
	}
	if got.NumDocs() != x.NumDocs() || got.TermSpaceSize() != x.TermSpaceSize() {
		t.Fatalf("materialized shape %d/%d, want %d/%d",
			got.NumDocs(), got.TermSpaceSize(), x.NumDocs(), x.TermSpaceSize())
	}
	q := dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: 3, Seed: 11})
	for _, query := range q {
		want := x.Search(query.Terms, 20, Disjunctive)
		have := got.Search(query.Terms, 20, Disjunctive)
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("query %v results differ after materialize", query.Terms)
		}
	}
}

func TestWriteToRequiresFinalized(t *testing.T) {
	x := NewIndex()
	x.AddText(1, "a b")
	path := filepath.Join(t.TempDir(), "index.iqdx")
	mustPanic(t, func() { _ = x.SaveFile(path) })
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("unfinalized save left a file behind: %v", err)
	}
}
