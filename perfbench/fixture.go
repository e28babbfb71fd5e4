package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"sort"

	"parseq/internal/bam"
	"parseq/internal/formats"
	"parseq/internal/sam"
	"parseq/internal/simdata"
)

// digest identifies an output: its SHA-256 and length.
type digest struct {
	sum [sha256.Size]byte
	n   int64
}

func (d digest) String() string { return fmt.Sprintf("%x (%d bytes)", d.sum[:6], d.n) }

// digester is a hash.Hash that counts what it was fed.
type digester struct {
	h hash.Hash
	n int64
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) Write(b []byte) (int, error) {
	d.n += int64(len(b))
	return d.h.Write(b)
}

func (d *digester) digest() digest {
	var out digest
	copy(out.sum[:], d.h.Sum(nil))
	out.n = d.n
	return out
}

// generate builds a simdata dataset for the workload's seed.
func generate(seed int64, reads int, sorted bool) *simdata.Dataset {
	cfg := simdata.DefaultConfig(reads)
	cfg.Seed = seed
	cfg.Sorted = sorted
	return simdata.Generate(cfg)
}

// writeSAM writes d as SAM text and returns the file size.
func writeSAM(d *simdata.Dataset, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := d.WriteSAM(bw); err != nil {
		f.Close()
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return fileSize(path)
}

// writeBAM writes d as BAM on a codec pool of the given size and
// returns the file size.
func writeBAM(d *simdata.Dataset, path string, workers int) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw, err := bam.NewWriter(f, d.Header, bam.WithCodecWorkers(workers))
	if err == nil {
		for i := range d.Records {
			if err = bw.Write(&d.Records[i]); err != nil {
				break
			}
		}
		if cerr := bw.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	return fileSize(path)
}

// writeIndex builds the BAI index of a coordinate-sorted BAM and writes
// it next to the file as <path>.bai.
func writeIndex(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	idx, err := bam.BuildFileIndex(f)
	if err != nil {
		return err
	}
	out, err := os.Create(path + ".bai")
	if err != nil {
		return err
	}
	if _, err := idx.WriteTo(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func mkdir(dir string) error { return os.MkdirAll(dir, 0o755) }

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// encodeDigest is the reference for a text conversion: the dataset's
// records encoded directly, in order, by the target format's encoder.
func encodeDigest(d *simdata.Dataset, format string) (digest, error) {
	enc, err := formats.New(format)
	if err != nil {
		return digest{}, err
	}
	dg := newDigester()
	dg.Write(enc.Header(d.Header))
	var buf []byte
	for i := range d.Records {
		buf, err = enc.Encode(buf[:0], &d.Records[i], d.Header)
		if err != nil {
			return digest{}, err
		}
		dg.Write(buf)
	}
	return dg.digest(), nil
}

// recordOrder returns record indices in coordinate order (reference,
// then position, unmapped last, ties in input order) — the order a
// coordinate sort must produce.
func recordOrder(d *simdata.Dataset) []int {
	ref := make([]int, len(d.Records))
	for i := range d.Records {
		ref[i] = d.Header.RefID(d.Records[i].RName)
		if ref[i] < 0 {
			ref[i] = len(d.Header.Refs)
		}
	}
	order := make([]int, len(d.Records))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if ref[i] != ref[j] {
			return ref[i] < ref[j]
		}
		return d.Records[i].Pos < d.Records[j].Pos
	})
	return order
}

// bodyDigest is the reference for a BAM output: every record's BAM
// body, length-prefixed, in the given order (nil means input order).
// Comparing decoded bodies rather than file bytes leaves the block
// layout and compression level free to change.
func bodyDigest(d *simdata.Dataset, order []int) (digest, error) {
	dg := newDigester()
	var buf []byte
	var err error
	for k := range d.Records {
		i := k
		if order != nil {
			i = order[k]
		}
		buf, err = bam.EncodeRecord(buf[:0], &d.Records[i], d.Header)
		if err != nil {
			return digest{}, err
		}
		writeBody(dg, buf[4:]) // past the block_size field ReadBody strips
	}
	return dg.digest(), nil
}

func writeBody(w io.Writer, body []byte) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(body)))
	w.Write(n[:])
	w.Write(body)
}

// bamBodiesDigest digests the record bodies of BAM files read in turn.
func bamBodiesDigest(paths []string) (digest, error) {
	dg := newDigester()
	for _, path := range paths {
		if err := readBodies(path, func(body []byte) { writeBody(dg, body) }); err != nil {
			return digest{}, err
		}
	}
	return dg.digest(), nil
}

func readBodies(path string, fn func([]byte)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br, err := bam.NewReader(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return err
	}
	defer br.Close()
	for {
		body, err := br.ReadBody()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		fn(body)
	}
}

// filesDigest digests the concatenation of files, in order.
func filesDigest(paths []string) (digest, error) {
	dg := newDigester()
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return digest{}, err
		}
		_, err = io.Copy(dg, f)
		f.Close()
		if err != nil {
			return digest{}, err
		}
	}
	return dg.digest(), nil
}

// refSpan is the number of reference bases a CIGAR consumes (at least
// one, as the BAI binning scheme counts it).
func refSpan(c sam.Cigar) int {
	n := 0
	for _, op := range c {
		switch op.Type() {
		case sam.CigarMatch, sam.CigarDeletion, sam.CigarSkipped, sam.CigarEqual, sam.CigarDiff:
			n += op.Len()
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}

// overlapCount counts mapped records on rname overlapping the 0-based
// half-open interval [beg, end).
func overlapCount(d *simdata.Dataset, rname string, beg, end int) int {
	n := 0
	for i := range d.Records {
		r := &d.Records[i]
		if r.RName != rname || r.Unmapped() {
			continue
		}
		s := int(r.Pos) - 1
		if s < end && s+refSpan(r.Cigar) > beg {
			n++
		}
	}
	return n
}
