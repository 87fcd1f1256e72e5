package ir

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"iqn/internal/dataset"
)

// buildMem indexes a seeded corpus in memory.
func buildMem(t *testing.T, docs int, seed int64, scoring Scoring) (*Index, *dataset.Corpus) {
	t.Helper()
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: docs, Seed: seed})
	x := NewIndex()
	x.SetScoring(scoring)
	for _, d := range corpus.Docs {
		x.AddDocument(d.ID, d.Terms)
	}
	x.Finalize()
	return x, corpus
}

// TestDiskIndexParity writes an in-memory index in the on-disk format
// and asserts every Searcher method — including exact score bits —
// matches between the two implementations, for every scoring model.
func TestDiskIndexParity(t *testing.T) {
	for _, scoring := range []Scoring{ScoringTFIDF, ScoringBM25, ScoringLM} {
		t.Run(scoring.String(), func(t *testing.T) {
			mem, corpus := buildMem(t, 400, 7, scoring)
			path := filepath.Join(t.TempDir(), "index.iqdx")
			if err := WriteDiskIndex(mem, path); err != nil {
				t.Fatal(err)
			}
			disk, err := OpenDisk(path)
			if err != nil {
				t.Fatal(err)
			}
			defer disk.Close()

			if disk.NumDocs() != mem.NumDocs() {
				t.Fatalf("NumDocs %d, want %d", disk.NumDocs(), mem.NumDocs())
			}
			if disk.TermSpaceSize() != mem.TermSpaceSize() {
				t.Fatalf("TermSpaceSize %d, want %d", disk.TermSpaceSize(), mem.TermSpaceSize())
			}
			if disk.MaxDocFreq() != mem.MaxDocFreq() {
				t.Fatalf("MaxDocFreq %d, want %d", disk.MaxDocFreq(), mem.MaxDocFreq())
			}
			if disk.Scoring() != scoring {
				t.Fatalf("Scoring %v, want %v", disk.Scoring(), scoring)
			}
			memTerms := mem.Terms()
			sort.Strings(memTerms)
			if !reflect.DeepEqual(disk.Terms(), memTerms) {
				t.Fatalf("term sets differ: %d vs %d", len(disk.Terms()), len(memTerms))
			}
			for _, term := range memTerms {
				if !reflect.DeepEqual(disk.Postings(term), mem.Postings(term)) {
					t.Fatalf("postings for %q differ", term)
				}
				if disk.DocFreq(term) != mem.DocFreq(term) {
					t.Fatalf("df for %q differs", term)
				}
				if disk.MaxScore(term) != mem.MaxScore(term) {
					t.Fatalf("MaxScore for %q: %v vs %v", term, disk.MaxScore(term), mem.MaxScore(term))
				}
				if disk.AvgScore(term) != mem.AvgScore(term) {
					t.Fatalf("AvgScore for %q: exact bits differ (%x vs %x)", term,
						math.Float64bits(disk.AvgScore(term)), math.Float64bits(mem.AvgScore(term)))
				}
				if !reflect.DeepEqual(disk.DocIDs(term), mem.DocIDs(term)) {
					t.Fatalf("DocIDs for %q differ", term)
				}
			}
			// Absent terms behave identically.
			if disk.Postings("nosuchterm") != nil || disk.DocFreq("nosuchterm") != 0 ||
				disk.MaxScore("nosuchterm") != 0 || disk.AvgScore("nosuchterm") != 0 ||
				disk.DocIDs("nosuchterm") != nil {
				t.Fatal("absent term not empty on disk reader")
			}
			// Queries are entry-for-entry identical, conjunctive and
			// disjunctive, across k.
			queries := dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: 6, Seed: 7})
			for _, q := range queries {
				for _, mode := range []Mode{Disjunctive, Conjunctive} {
					for _, k := range []int{1, 10, 0} {
						want := mem.Search(q.Terms, k, mode)
						have := disk.Search(q.Terms, k, mode)
						if !reflect.DeepEqual(want, have) {
							t.Fatalf("query %v (k=%d, %v) differs", q.Terms, k, mode)
						}
					}
				}
			}
		})
	}
}

func TestDiskIndexDetectsCorruption(t *testing.T) {
	mem, _ := buildMem(t, 150, 3, ScoringTFIDF)
	path := filepath.Join(t.TempDir(), "index.iqdx")
	if err := WriteDiskIndex(mem, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the postings area.
	flip := append([]byte(nil), data...)
	flip[len(flip)/4] ^= 0x40
	if err := os.WriteFile(path, flip, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(path); err == nil {
		t.Fatal("corrupt disk index opened without error")
	}
	// Truncation is caught too.
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(path); err == nil {
		t.Fatal("truncated disk index opened without error")
	}
}

func TestDiskIndexSaveFileCopies(t *testing.T) {
	mem, _ := buildMem(t, 100, 5, ScoringBM25)
	dir := t.TempDir()
	path := filepath.Join(dir, "index.iqdx")
	if err := WriteDiskIndex(mem, path); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	copyPath := filepath.Join(dir, "copy.iqdx")
	if err := disk.SaveFile(copyPath); err != nil {
		t.Fatal(err)
	}
	copied, err := OpenDisk(copyPath)
	if err != nil {
		t.Fatalf("copied index does not open: %v", err)
	}
	defer copied.Close()
	if copied.NumDocs() != disk.NumDocs() || copied.TermSpaceSize() != disk.TermSpaceSize() {
		t.Fatal("copied index shape differs")
	}
}

func TestSynopsisSideFileRoundTrip(t *testing.T) {
	mem, _ := buildMem(t, 120, 9, ScoringTFIDF)
	dir := t.TempDir()
	path := filepath.Join(dir, "index.iqdx")
	if err := WriteDiskIndex(mem, path); err != nil {
		t.Fatal(err)
	}
	terms := mem.Terms()
	sort.Strings(terms)
	sw, err := NewSynopsisWriter(path+".syn", 1, 2048, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i, term := range terms {
		data := []byte{byte(i), byte(i >> 8), 0xab}
		want[term] = data
		if err := sw.AddTerm(term, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	kind, bits, seed, ok := disk.SynopsisScheme()
	if !ok || kind != 1 || bits != 2048 || seed != 42 {
		t.Fatalf("scheme = %d/%d/%d/%v", kind, bits, seed, ok)
	}
	for term, data := range want {
		got, ok := disk.PrebuiltSynopsis(term)
		if !ok || !reflect.DeepEqual(got, data) {
			t.Fatalf("synopsis for %q = %v/%v, want %v", term, got, ok, data)
		}
	}
	if _, ok := disk.PrebuiltSynopsis("absent"); ok {
		t.Fatal("absent term has a synopsis")
	}
	// Out-of-order writers fail.
	sw2, err := NewSynopsisWriter(filepath.Join(dir, "bad.syn"), 1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = sw2.AddTerm("zz", nil)
	if err := sw2.AddTerm("aa", nil); err == nil {
		t.Fatal("out-of-order synopsis term accepted")
	}
	sw2.Close()
}

func TestDiskWriterRejectsOutOfOrderTerms(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.iqdx")
	w, err := NewDiskWriter(path, ScoringTFIDF)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddTerm("zebra", []Posting{{DocID: 1, Score: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddTerm("apple", []Posting{{DocID: 2, Score: 1}}); err == nil {
		t.Fatal("out-of-order term accepted")
	}
	w.Close()
}

func TestDiskIndexEmptyCorpus(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.iqdx")
	w, err := NewDiskWriter(path, ScoringTFIDF)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if disk.NumDocs() != 0 || disk.TermSpaceSize() != 0 || disk.MaxDocFreq() != 0 {
		t.Fatal("empty index not empty")
	}
	if got := disk.Search([]string{"any"}, 5, Disjunctive); len(got) != 0 {
		t.Fatalf("empty index returned results: %v", got)
	}
}

// TestDiskIndexAccessors covers the small introspection surface: Path,
// AllDocIDs (sorted, matches the source), and the refusal of files that
// are not IQDX.
func TestDiskIndexAccessors(t *testing.T) {
	mem, corpus := buildMem(t, 80, 9, ScoringTFIDF)
	dir := t.TempDir()
	path := filepath.Join(dir, "index.iqdx")
	if err := WriteDiskIndex(mem, path); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	if disk.Path() != path {
		t.Fatalf("Path() = %q, want %q", disk.Path(), path)
	}
	ids := disk.AllDocIDs()
	if len(ids) != len(corpus.Docs) {
		t.Fatalf("AllDocIDs: %d ids, want %d", len(ids), len(corpus.Docs))
	}
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		t.Fatal("AllDocIDs not sorted")
	}

	// Anything that does not start with the IQDX magic is refused by
	// name, whatever its length.
	for name, content := range map[string][]byte{
		"tiny":    {1, 2},
		"garbage": []byte(strings.Repeat("x", 100)),
	} {
		other := filepath.Join(dir, name)
		if err := os.WriteFile(other, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDisk(other); err == nil || !strings.Contains(err.Error(), "not an IQDX index") {
			t.Fatalf("OpenDisk(%s) error = %v, want not-an-IQDX-index", name, err)
		}
	}
	if _, err := OpenDisk(filepath.Join(dir, "missing")); err == nil || strings.Contains(err.Error(), "IQDX") {
		t.Fatalf("OpenDisk(missing) error = %v, want a plain open error", err)
	}
}

// TestDiskWriterReportsBytes checks BytesWritten tracks the growing
// output file.
func TestDiskWriterReportsBytes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.iqdx")
	w, err := NewDiskWriter(path, ScoringTFIDF)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddTerm("alpha", []Posting{{DocID: 1, Score: 1}}); err != nil {
		t.Fatal(err)
	}
	mid := w.BytesWritten()
	if mid <= 0 {
		t.Fatalf("BytesWritten after a term = %d, want > 0", mid)
	}
	w.AddDocs([]uint64{1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() <= mid {
		t.Fatalf("final file %d bytes, not larger than mid-write %d", st.Size(), mid)
	}
}
