package bamx

import (
	"encoding/binary"
	"fmt"
	"io"

	"parseq/internal/bam"
	"parseq/internal/bgzf"
	"parseq/internal/sam"
)

// PreprocessBAM is the sequential preprocessing phase of the paper's BAM
// format converter: it reads a BAM stream twice (the format offers no
// record delimiters, so this pass cannot be parallelised — exactly the
// paper's Section III-B observation), writing a fixed-stride BAMX file
// and returning the BAIX index.
//
// Pass one measures the maximum field sizes; pass two pads every record
// to those capacities. The BAM bodies are relocated without decoding —
// field lengths live in the record prefix.
func PreprocessBAM(rs io.ReadSeeker, w io.Writer) (*Index, error) {
	return PreprocessBAMWorkers(rs, w, 0)
}

// PreprocessBAMWorkers is PreprocessBAM with the BGZF inflate side
// running on codecWorkers goroutines (0 selects the adaptive default,
// bgzf.AutoWorkers; 1 forces the sequential codec). The record scan
// itself stays sequential — the paper's constraint is on record
// delimitation, not block decompression, so the codec is the one layer
// that can be parallelised under it. Both passes walk the stream
// through the zero-copy block scanner, so record bytes are never copied
// out of the inflated blocks except at block boundaries; the emitted
// BAMX bytes and BAIX index are bit-identical for every worker count.
func PreprocessBAMWorkers(rs io.ReadSeeker, w io.Writer, codecWorkers int) (*Index, error) {
	if codecWorkers <= 0 {
		codecWorkers = bgzf.AutoWorkers()
	}
	start, err := rs.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, err
	}

	// Pass 1: measure capacities.
	br, err := bam.NewReader(rs, bam.WithCodecWorkers(codecWorkers))
	if err != nil {
		return nil, err
	}
	var caps Caps
	caps.QName = 2 // room for the "*" placeholder name
	caps.Seq = 1
	sc := bam.NewBodyScanner(br)
	for {
		body, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			br.Close()
			return nil, err
		}
		caps.Observe(body)
	}
	if err := br.Close(); err != nil {
		return nil, err
	}

	// Pass 2: relocate records into the padded layout.
	if _, err := rs.Seek(start, io.SeekStart); err != nil {
		return nil, err
	}
	br, err = bam.NewReader(rs, bam.WithCodecWorkers(codecWorkers))
	if err != nil {
		return nil, err
	}
	defer br.Close()
	bw, err := NewWriter(w, br.Header(), caps)
	if err != nil {
		return nil, err
	}
	var entries []Entry
	sc = bam.NewBodyScanner(br)
	for {
		body, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		refID := int32(binary.LittleEndian.Uint32(body[0:]))
		pos := int32(binary.LittleEndian.Uint32(body[4:])) + 1
		idx := bw.Count()
		if err := bw.WriteEncoded(body); err != nil {
			return nil, err
		}
		if refID >= 0 {
			entries = append(entries, Entry{RefID: refID, Pos: pos, Index: idx})
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return NewIndex(entries), nil
}

// BuildFromRecords writes a BAMX file plus BAIX index for in-memory
// records: it encodes them into one arena and hands that to Build.
func BuildFromRecords(w io.Writer, h *sam.Header, recs []sam.Record) (*Index, error) {
	var arena []byte
	for i := range recs {
		var err error
		if arena, err = bam.EncodeRecord(arena, &recs[i], h); err != nil {
			return nil, err
		}
	}
	return Build(w, h, arena)
}

// Build writes a BAMX file plus BAIX index for an arena of BAM records,
// each with its block_size prefix, as bam.EncodeRecord appends them —
// the building block of the preprocessing-optimized SAM converter,
// where each rank turns its text partition into one such arena. The
// two passes of PreprocessBAM become one sweep over the arena that
// measures the caps and collects the index entries (reference and
// position read from each body, as PreprocessBAM does), and one padded
// write.
func Build(w io.Writer, h *sam.Header, arena []byte) (*Index, error) {
	caps := Caps{QName: 2, Seq: 1}
	var entries []Entry
	var n int64
	for rest := arena; len(rest) > 0; n++ {
		body, tail, err := nextBody(rest)
		if err != nil {
			return nil, err
		}
		rest = tail
		caps.Observe(body)
		refID := int32(binary.LittleEndian.Uint32(body[0:]))
		pos := int32(binary.LittleEndian.Uint32(body[4:])) + 1
		if refID >= 0 {
			entries = append(entries, Entry{RefID: refID, Pos: pos, Index: n})
		}
	}
	bw, err := NewWriter(w, h, caps)
	if err != nil {
		return nil, err
	}
	for rest := arena; len(rest) > 0; {
		body, tail, _ := nextBody(rest) // framing checked by the first sweep
		rest = tail
		if err := bw.WriteEncoded(body); err != nil {
			return nil, err
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return NewIndex(entries), nil
}

// nextBody splits the first block_size-prefixed record off an arena.
func nextBody(arena []byte) (body, rest []byte, err error) {
	if len(arena) < 4 {
		return nil, nil, fmt.Errorf("%w: truncated record size", ErrCorrupt)
	}
	size := int(binary.LittleEndian.Uint32(arena))
	if size < 32 || size > len(arena)-4 {
		return nil, nil, fmt.Errorf("%w: record size %d", ErrCorrupt, size)
	}
	return arena[4 : 4+size], arena[4+size:], nil
}

// BuildIndex scans an existing BAMX file and reconstructs its BAIX index,
// for when the sidecar index is missing.
func BuildIndex(f *File) (*Index, error) {
	var entries []Entry
	buf := make([]byte, f.Stride())
	for i := int64(0); i < f.NumRecords(); i++ {
		if err := f.ReadRaw(i, buf); err != nil {
			return nil, err
		}
		refID := int32(binary.LittleEndian.Uint32(buf[0:]))
		pos := int32(binary.LittleEndian.Uint32(buf[4:])) + 1
		if refID >= 0 {
			entries = append(entries, Entry{RefID: refID, Pos: pos, Index: i})
		}
	}
	return NewIndex(entries), nil
}
