package bamx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"

	"parseq/internal/sam"
)

// baixMagic identifies a BAIX index file.
var baixMagic = []byte{'B', 'A', 'I', 'X', 1}

// Entry is one BAIX index entry: the starting position of an alignment
// and the physical index of its record in the BAMX file (the paper's
// Figure 4, extended with the reference ID so multi-chromosome files can
// be region-queried).
type Entry struct {
	RefID int32 // reference ID; unmapped records are not indexed
	Pos   int32 // 1-based starting position
	Index int64 // record index in the BAMX file
}

// Index is a BAIX index: entries sorted by (RefID, Pos).
type Index struct {
	entries []Entry
}

// NewIndex builds an index from entries, sorting them into BAIX order.
func NewIndex(entries []Entry) *Index {
	es := append([]Entry(nil), entries...)
	sort.Slice(es, func(i, j int) bool {
		if es[i].RefID != es[j].RefID {
			return es[i].RefID < es[j].RefID
		}
		if es[i].Pos != es[j].Pos {
			return es[i].Pos < es[j].Pos
		}
		return es[i].Index < es[j].Index
	})
	return &Index{entries: es}
}

// Len returns the number of indexed alignments.
func (ix *Index) Len() int { return len(ix.entries) }

// Entries exposes the sorted entries (read-only by convention).
func (ix *Index) Entries() []Entry { return ix.entries }

// Region returns the half-open range [lo, hi) of index positions whose
// alignments start within [begPos, endPos] (1-based, inclusive) on refID.
// This is the paper's partial-conversion lookup: two binary searches over
// the sorted starting positions. Slicing Entries()[lo:hi] and dividing it
// equally among processors is the "BAIX region" partitioning.
func (ix *Index) Region(refID int32, begPos, endPos int32) (lo, hi int) {
	lo = sort.Search(len(ix.entries), func(i int) bool {
		e := ix.entries[i]
		return e.RefID > refID || (e.RefID == refID && e.Pos >= begPos)
	})
	hi = sort.Search(len(ix.entries), func(i int) bool {
		e := ix.entries[i]
		return e.RefID > refID || (e.RefID == refID && e.Pos > endPos)
	})
	return lo, hi
}

// RefRange returns the half-open range of index positions on refID — a
// whole-chromosome query.
func (ix *Index) RefRange(refID int32) (lo, hi int) {
	lo = sort.Search(len(ix.entries), func(i int) bool {
		return ix.entries[i].RefID >= refID
	})
	hi = sort.Search(len(ix.entries), func(i int) bool {
		return ix.entries[i].RefID > refID
	})
	return lo, hi
}

// WriteTo serialises the index in the BAIX file format: magic, entry
// count, then 16 bytes per entry.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	buf := make([]byte, 0, len(baixMagic)+8+16*len(ix.entries))
	buf = append(buf, baixMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(ix.entries)))
	for _, e := range ix.entries {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.RefID))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Pos))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Index))
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// ReadIndex parses a BAIX file, keeping every entry: it is the region
// lookup of LookupRegion with a range that admits all of them.
func ReadIndex(r io.Reader) (*Index, error) {
	entries, err := readEntries(r, 0, math.MaxUint64)
	if err != nil {
		return nil, err
	}
	return &Index{entries: entries}, nil
}

// LookupRegion answers one partial-conversion query: the entries of the
// alignments on reference rname of h that start within [beg, end]
// (1-based, inclusive; beg <= 0 means the reference start and end <= 0
// its end), which is what slicing ReadIndex's entries at Index.Region
// returns. The BAIX file at baixPath streams through a pooled buffer,
// so a query allocates only for the entries it returns, while every
// check of ReadIndex still covers the whole file. When that file does
// not exist, the index is rebuilt by scanning rebuild; a nil rebuild
// makes the BAIX required.
func LookupRegion(baixPath string, h *sam.Header, rname string, beg, end int32, rebuild *File) ([]Entry, error) {
	refID := h.RefID(rname)
	if refID < 0 {
		return nil, fmt.Errorf("bamx: region reference %q not in header", rname)
	}
	lo, hi := regionKeys(int32(refID), beg, end)
	if baixPath != "" {
		f, err := os.Open(baixPath)
		if err == nil {
			defer f.Close()
			entries, err := readEntries(f, lo, hi)
			if err != nil {
				return nil, fmt.Errorf("reading %s: %w", baixPath, err)
			}
			return entries, nil
		}
		if !os.IsNotExist(err) || rebuild == nil {
			return nil, err
		}
	}
	if rebuild == nil {
		return nil, errors.New("bamx: region query needs a BAIX index")
	}
	idx, err := BuildIndex(rebuild)
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, e := range idx.entries {
		if k := entryKey(e.RefID, e.Pos); k >= lo && k <= hi {
			out = append(out, e)
		}
	}
	return out, nil
}

// regionKeys returns the inclusive key range of a region query, with
// the defaults for beg and end applied.
func regionKeys(refID, beg, end int32) (lo, hi uint64) {
	if beg <= 0 {
		beg = 1
	}
	if end <= 0 {
		end = math.MaxInt32
	}
	return entryKey(refID, beg), entryKey(refID, end)
}

// entryKey packs (refID, pos) into one integer with the same order as
// the signed pair, so the lookup orders and bounds entries with single
// comparisons.
func entryKey(refID, pos int32) uint64 {
	return uint64(uint32(refID)^1<<31)<<32 | uint64(uint32(pos)^1<<31)
}

// baixReadBytes is the lookup's read size: 4096 entries per read.
const baixReadBytes = 64 << 10

var baixBufPool = sync.Pool{New: func() any { b := make([]byte, baixReadBytes); return &b }}

// readEntries streams a BAIX file and returns the entries whose keys lie
// in [loKey, hiKey], decoding no others. It verifies the magic, that the
// declared count fits the bytes present, and the (RefID, Pos) order of
// every entry: the order is what makes a BAIX range a region.
func readEntries(r io.Reader, loKey, hiKey uint64) ([]Entry, error) {
	bp := baixBufPool.Get().(*[]byte)
	defer baixBufPool.Put(bp)
	buf := *bp
	if _, err := io.ReadFull(r, buf[:len(baixMagic)+8]); err != nil || string(buf[:len(baixMagic)]) != string(baixMagic) {
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return nil, err
		}
		return nil, errors.New("bamx: bad BAIX magic")
	}
	// count is untrusted: nothing is allocated from it, and a file
	// holding fewer entries fails at its end.
	count := binary.LittleEndian.Uint64(buf[len(baixMagic):])
	var out []Entry
	var prev uint64
	for i := uint64(0); i < count; {
		n := min(count-i, uint64(len(buf)/16))
		got, err := io.ReadFull(r, buf[:n*16])
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return nil, err
		}
		full := uint64(got / 16)
		for off := 0; off < int(full)*16; off += 16 {
			e := buf[off : off+16]
			refID, pos := int32(binary.LittleEndian.Uint32(e)), int32(binary.LittleEndian.Uint32(e[4:]))
			key := entryKey(refID, pos)
			if key < prev {
				return nil, fmt.Errorf("%w: BAIX entries out of order at %d", ErrCorrupt, i)
			}
			prev = key
			if key >= loKey && key <= hiKey {
				out = append(out, Entry{RefID: refID, Pos: pos, Index: int64(binary.LittleEndian.Uint64(e[8:]))})
			}
			i++
		}
		if full < n {
			return nil, fmt.Errorf("%w: BAIX declares %d entries, data holds %d", ErrCorrupt, count, i)
		}
	}
	return out, nil
}
