package ir

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// DiskIndex is the out-of-core reader over the on-disk posting format
// (see diskformat.go): the term dictionary and document-ID list are
// resident, postings are pread on demand per term. It implements
// Searcher, so a peer can serve queries from a million-document index
// with memory proportional to the vocabulary, not the corpus.
//
// The reader uses positional reads (ReadAt) rather than mmap: preads
// are portable, bound memory explicitly, and on the short score-sorted
// prefixes the query path touches the kernel page cache already gives
// mmap-like performance. All methods are safe for concurrent use —
// ReadAt is stateless and the resident structures are immutable.
type DiskIndex struct {
	f       *os.File
	path    string
	scoring Scoring
	terms   []string // ascending
	dict    map[string]diskDictEntry
	numDocs int
	docIDs  []uint64 // sorted ascending
	maxDF   int
	syn     *synReader // nil when no synopsis side file exists
}

// OpenDisk opens an on-disk index written by DiskWriter (directly or
// through the buildix pipeline), verifies its checksum, and loads the
// dictionary and document list. A synopsis side file at path+".syn" is
// picked up automatically when present.
func OpenDisk(path string) (*DiskIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ir: open disk index: %w", err)
	}
	x, err := openDisk(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	if syn, err := openSyn(path + ".syn"); err != nil {
		x.Close()
		return nil, err
	} else if syn != nil {
		x.syn = syn
	}
	return x, nil
}

func openDisk(f *os.File, path string) (*DiskIndex, error) {
	var magic [len(diskMagic)]byte
	if n, _ := f.ReadAt(magic[:], 0); n < len(magic) || string(magic[:]) != diskMagic {
		return nil, fmt.Errorf("ir: disk index %s: not an IQDX index: re-index and save again", path)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("ir: disk index %s: %w", path, err)
	}
	size := st.Size()
	if size < int64(len(diskMagic))+1+diskFooterLen {
		return nil, fmt.Errorf("ir: disk index %s: file too short (%d bytes)", path, size)
	}
	var foot [diskFooterLen]byte
	if _, err := f.ReadAt(foot[:], size-diskFooterLen); err != nil {
		return nil, fmt.Errorf("ir: disk index %s: read footer: %w", path, err)
	}
	if string(foot[21:]) != diskEndMagic {
		return nil, fmt.Errorf("ir: disk index %s: bad trailer magic (truncated or not a disk index)", path)
	}
	dictOff := int64(binary.BigEndian.Uint64(foot[0:]))
	docsOff := int64(binary.BigEndian.Uint64(foot[8:]))
	scoring := Scoring(foot[16])
	wantCRC := binary.BigEndian.Uint32(foot[17:])
	if dictOff < 0 || docsOff < 0 || docsOff > dictOff || dictOff > size-diskFooterLen {
		return nil, fmt.Errorf("ir: disk index %s: corrupt section offsets", path)
	}

	// Verify the checksum over everything before the CRC field: one
	// sequential pass at open buys corruption detection for the life of
	// the reader.
	crc := crc32.New(castagnoli)
	if _, err := io.Copy(crc, io.NewSectionReader(f, 0, size-12)); err != nil {
		return nil, fmt.Errorf("ir: disk index %s: checksum read: %w", path, err)
	}
	if crc.Sum32() != wantCRC {
		return nil, fmt.Errorf("ir: disk index %s: checksum mismatch (corrupt or truncated)", path)
	}

	var version [1]byte
	if _, err := f.ReadAt(version[:], int64(len(diskMagic))); err != nil {
		return nil, fmt.Errorf("ir: disk index %s: read header: %w", path, err)
	}
	if version[0] != diskVersion {
		return nil, fmt.Errorf("ir: disk index %s: version %d, want %d", path, version[0], diskVersion)
	}

	x := &DiskIndex{f: f, path: path, scoring: scoring, dict: map[string]diskDictEntry{}}

	// Doc list.
	dr := bufio.NewReaderSize(io.NewSectionReader(f, docsOff, dictOff-docsOff), 1<<16)
	nDocs, err := binary.ReadUvarint(dr)
	if err != nil {
		return nil, fmt.Errorf("ir: disk index %s: doc list: %w", path, err)
	}
	x.numDocs = int(nDocs)
	x.docIDs = make([]uint64, 0, nDocs)
	prev := uint64(0)
	for i := uint64(0); i < nDocs; i++ {
		d, err := binary.ReadUvarint(dr)
		if err != nil {
			return nil, fmt.Errorf("ir: disk index %s: doc list: %w", path, err)
		}
		prev += d
		x.docIDs = append(x.docIDs, prev)
	}

	// Dictionary.
	tr := bufio.NewReaderSize(io.NewSectionReader(f, dictOff, size-diskFooterLen-dictOff), 1<<16)
	nTerms, err := binary.ReadUvarint(tr)
	if err != nil {
		return nil, fmt.Errorf("ir: disk index %s: dictionary: %w", path, err)
	}
	x.terms = make([]string, 0, nTerms)
	for i := uint64(0); i < nTerms; i++ {
		tl, err := binary.ReadUvarint(tr)
		if err != nil {
			return nil, fmt.Errorf("ir: disk index %s: dictionary: %w", path, err)
		}
		name := make([]byte, tl)
		if _, err := io.ReadFull(tr, name); err != nil {
			return nil, fmt.Errorf("ir: disk index %s: dictionary: %w", path, err)
		}
		var e diskDictEntry
		var v uint64
		if v, err = binary.ReadUvarint(tr); err == nil {
			e.df = int(v)
			if v, err = binary.ReadUvarint(tr); err == nil {
				e.off = int64(v)
				if v, err = binary.ReadUvarint(tr); err == nil {
					e.byteLen = int64(v)
					if e.maxBits, err = binary.ReadUvarint(tr); err == nil {
						e.sumBits, err = binary.ReadUvarint(tr)
					}
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("ir: disk index %s: dictionary: %w", path, err)
		}
		term := string(name)
		x.terms = append(x.terms, term)
		x.dict[term] = e
		if e.df > x.maxDF {
			x.maxDF = e.df
		}
	}
	return x, nil
}

// Close releases the underlying file handles.
func (x *DiskIndex) Close() error {
	var err error
	if x.syn != nil {
		err = x.syn.f.Close()
		x.syn = nil
	}
	if cerr := x.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Path returns the index file's path.
func (x *DiskIndex) Path() string { return x.path }

// NumDocs returns the number of indexed documents.
func (x *DiskIndex) NumDocs() int { return x.numDocs }

// TermSpaceSize returns the number of distinct terms.
func (x *DiskIndex) TermSpaceSize() int { return len(x.terms) }

// Terms returns the indexed terms in ascending order. The returned
// slice is shared; callers must not modify it.
func (x *DiskIndex) Terms() []string { return x.terms }

// DocFreq returns df(term).
func (x *DiskIndex) DocFreq(term string) int { return x.dict[term].df }

// MaxDocFreq returns the largest document frequency of any term.
func (x *DiskIndex) MaxDocFreq() int { return x.maxDF }

// MaxScore returns the highest score in the term's postings list.
func (x *DiskIndex) MaxScore(term string) float64 {
	e, ok := x.dict[term]
	if !ok {
		return 0
	}
	return math.Float64frombits(e.maxBits)
}

// AvgScore returns the mean score of the term's postings list. The sum
// was computed by the writer in list order — the same order the
// in-memory index sums in — so the result is bit-identical.
func (x *DiskIndex) AvgScore(term string) float64 {
	e, ok := x.dict[term]
	if !ok {
		return 0
	}
	return math.Float64frombits(e.sumBits) / float64(e.df)
}

// Scoring returns the relevance model the index was built with.
func (x *DiskIndex) Scoring() Scoring { return x.scoring }

// Postings preads and decodes the term's postings list (score
// descending). The returned slice is freshly allocated per call.
func (x *DiskIndex) Postings(term string) []Posting {
	e, ok := x.dict[term]
	if !ok {
		return nil
	}
	list, err := x.readPostings(e)
	if err != nil {
		// The file was checksum-verified at open; a read failure here is
		// an environmental error (file deleted/truncated underneath us).
		// The Searcher interface has no error channel — fail loudly.
		panic(fmt.Sprintf("ir: disk index %s: postings %q: %v", x.path, term, err))
	}
	return list
}

func (x *DiskIndex) readPostings(e diskDictEntry) ([]Posting, error) {
	buf := make([]byte, e.byteLen)
	if _, err := x.f.ReadAt(buf, e.off); err != nil {
		return nil, err
	}
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || int(n) != e.df {
		return nil, fmt.Errorf("posting count %d, dictionary df %d", n, e.df)
	}
	buf = buf[sz:]
	list := make([]Posting, 0, n)
	bits := uint64(0)
	for i := uint64(0); i < n; i++ {
		d, sz := binary.Uvarint(buf)
		if sz <= 0 {
			return nil, fmt.Errorf("truncated score delta")
		}
		buf = buf[sz:]
		if i == 0 {
			bits = d
		} else {
			bits -= d
		}
		doc, sz := binary.Uvarint(buf)
		if sz <= 0 {
			return nil, fmt.Errorf("truncated doc ID")
		}
		buf = buf[sz:]
		list = append(list, Posting{DocID: doc, Score: math.Float64frombits(bits)})
	}
	return list, nil
}

// DocIDs returns the term's document IDs in postings order.
func (x *DiskIndex) DocIDs(term string) []uint64 {
	list := x.Postings(term)
	if list == nil {
		return nil
	}
	ids := make([]uint64, len(list))
	for i, p := range list {
		ids[i] = p.DocID
	}
	return ids
}

// Search executes a multi-keyword query through the shared execution
// core — results are entry-for-entry identical to the in-memory index
// built over the same corpus.
func (x *DiskIndex) Search(terms []string, k int, mode Mode) []Result {
	return searchPostings(x.Postings, terms, k, mode)
}

// AllDocIDs returns the sorted document-ID list (shared; do not modify).
func (x *DiskIndex) AllDocIDs() []uint64 { return x.docIDs }

// Materialize loads the whole index into an in-memory *Index. The
// result is finalized and query-identical to the disk reader.
func (x *DiskIndex) Materialize() *Index {
	m := &Index{
		postings:  make(map[string][]Posting, len(x.terms)),
		docs:      make(map[uint64]struct{}, x.numDocs),
		docLen:    map[uint64]int{},
		scoring:   x.scoring,
		finalized: true,
	}
	for _, t := range x.terms {
		m.postings[t] = x.Postings(t)
	}
	for _, d := range x.docIDs {
		m.docs[d] = struct{}{}
	}
	return m
}

// SaveFile copies the on-disk index (and its synopsis side file, when
// present) to path — the disk-index counterpart of (*Index).SaveFile.
func (x *DiskIndex) SaveFile(path string) error {
	if err := copyFile(x.path, path); err != nil {
		return fmt.Errorf("ir: save disk index: %w", err)
	}
	if x.syn != nil {
		if err := copyFile(x.path+".syn", path+".syn"); err != nil {
			return fmt.Errorf("ir: save disk index synopses: %w", err)
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst + ".tmp")
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		os.Remove(dst + ".tmp")
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		os.Remove(dst + ".tmp")
		return err
	}
	if err := out.Close(); err != nil {
		os.Remove(dst + ".tmp")
		return err
	}
	return os.Rename(dst+".tmp", dst)
}
