package ir

// This file is the in-memory index's snapshot seam, so a peer can
// restart without re-indexing its crawl. There is one snapshot format:
// the IQDX on-disk index (diskformat.go) — written through a temp file,
// fsynced, renamed into place, and guarded by a crc32c footer, so a
// truncated or bit-flipped file fails loudly at load instead of
// silently feeding a corrupt index into queries.

// SaveFile writes the finalized index to path as an IQDX file. Panics
// if the index is not finalized. OpenDisk reads it back (Materialize
// loads it fully into memory).
func (x *Index) SaveFile(path string) error {
	return WriteDiskIndex(x, path)
}
