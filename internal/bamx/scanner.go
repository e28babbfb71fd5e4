package bamx

import (
	"fmt"
	"io"

	"parseq/internal/bam"
	"parseq/internal/sam"
)

// Scanner streams a contiguous range of BAMX records with large chunked
// reads, so the per-record cost is a decode, not a syscall. This is the
// read path of the parallel conversion phase: each rank scans its
// partition's record range.
type Scanner struct {
	f        *File
	next, hi int64
	stride   int
	buf      []byte // chunk of whole records
	off      int    // read position within buf
	body     []byte // reusable unpadded-record scratch
	err      error
}

// scanChunkBytes is the chunk size target; it is rounded down to a whole
// number of records.
const scanChunkBytes = 1 << 20

// Scan returns a Scanner over records [lo, hi).
func (f *File) Scan(lo, hi int64) *Scanner {
	s := &Scanner{f: f, stride: f.caps.Stride()}
	s.Reset(lo, hi)
	return s
}

// Reset retargets the scanner at records [lo, hi), keeping its buffer,
// so one scanner reads a run of ranges (a region's record runs). The
// buffer holds the range or ~1 MiB of records, whichever is smaller,
// and grows only when a later range needs more.
func (s *Scanner) Reset(lo, hi int64) {
	lo, hi = max(lo, 0), min(hi, s.f.count)
	perChunk := max(int64(scanChunkBytes/s.stride), 1)
	if n := min(hi-lo, perChunk) * int64(s.stride); n > int64(cap(s.buf)) {
		s.buf = make([]byte, 0, n)
	}
	s.next, s.hi, s.buf, s.off, s.err = lo, hi, s.buf[:0], 0, nil
}

// Next decodes the next record into rec, reporting false at the end of
// the range.
func (s *Scanner) Next(rec *sam.Record) (bool, error) {
	if s.err != nil {
		return false, s.err
	}
	if s.off == len(s.buf) {
		if s.next >= s.hi {
			return false, nil
		}
		n := int64(cap(s.buf) / s.stride)
		if s.next+n > s.hi {
			n = s.hi - s.next
		}
		s.buf = s.buf[:n*int64(s.stride)]
		offset := s.f.dataStart + s.next*int64(s.stride)
		if _, err := s.f.r.ReadAt(s.buf, offset); err != nil && err != io.EOF {
			s.err = fmt.Errorf("bamx: scan read at record %d: %w", s.next, err)
			return false, s.err
		}
		s.next += n
		s.off = 0
	}
	raw := s.buf[s.off : s.off+s.stride]
	s.off += s.stride
	var err error
	s.body, err = unpadRecord(s.body[:0], raw, s.f.caps)
	if err != nil {
		s.err = err
		return false, err
	}
	if err := bam.DecodeRecord(s.body, rec, s.f.header); err != nil {
		s.err = err
		return false, err
	}
	return true, nil
}
