package pamx

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"parseq/internal/bam"
	"parseq/internal/bgzf"
	"parseq/internal/obs"
	"parseq/internal/parpipe"
	"parseq/internal/sam"
)

// Writer emits a PAMX file: records buffer into per-column streams until
// the current column group cuts (size cap, record cap, or reference
// change). A cut group's non-empty columns become (group, column) jobs
// of the column compressor, each deflated into an independent BGZF blob,
// and a drain appends the blobs in order and records their offsets.
// Close flushes the last group and writes the footer index.
//
// The compressor follows Options.CodecWorkers: 1 runs every job inline
// on the caller, with no goroutines; otherwise jobs run on an
// order-preserving stage (on bgzf.SharedPool for 0, a private pool of n
// otherwise) and a drain goroutine retires them, with at most workers+1
// groups in flight and their column buffers recycled. Every path writes
// the same bytes.
type Writer struct {
	w      io.Writer
	header *sam.Header
	opts   Options

	g     *group // the group being filled; nil between groups
	count int64
	cut   int // groups handed to the compressor
	err   error

	pipe      *parpipe.Pipe[*colJob] // nil on the inline path
	drained   chan struct{}
	zw        *bgzf.Writer // the inline path's reused column writer
	zwPool    sync.Pool    // *bgzf.Writer, one per running stage job
	jobPool   sync.Pool    // *colJob
	free      chan *group  // retired groups awaiting reuse
	made      int          // groups allocated so far, at most maxGroups
	maxGroups int

	mu   sync.Mutex
	perr error // first compress or write error in stream order

	// Owned by the drain while the stage runs: the file offset of the
	// next blob and the retired groups' footer entries.
	off    int64
	groups []GroupInfo
}

// group is one column group's buffered columns and footer entry.
type group struct {
	info GroupInfo
	cols [numColumns][]byte
}

// colJob compresses one column of one group into a BGZF blob.
type colJob struct {
	g    *group
	col  int
	last bool // the group's last non-empty column
	blob bytes.Buffer
	err  error
}

// encodeHeader renders the file prologue: magic, header-text length and
// the SAM header text.
func encodeHeader(h *sam.Header) []byte {
	text := h.String()
	hdr := make([]byte, 0, len(Magic)+4+len(text))
	hdr = append(hdr, Magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(text)))
	return append(hdr, text...)
}

// NewWriter writes the PAMX prologue and returns a record writer.
func NewWriter(w io.Writer, h *sam.Header, opts Options) (*Writer, error) {
	if opts.GroupBytes <= 0 {
		opts.GroupBytes = DefaultGroupBytes
	}
	hdr := encodeHeader(h)
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	pw := &Writer{w: w, header: h, opts: opts, off: int64(len(hdr))}
	pw.jobPool.New = func() any { return &colJob{} }
	// The stage holds every column of the workers+1 groups in flight.
	workers := opts.CodecWorkers
	switch {
	case workers == 1:
		pw.zw = bgzf.NewStageWriter(false)
	case workers > 1:
		pw.zwPool.New = func() any { return bgzf.NewStageWriter(false) }
		pw.pipe = parpipe.NewObserved(workers, numColumns*(workers+1), pw.compress, obs.Default(), "bgzf.deflate")
	default:
		workers = bgzf.AutoWorkers()
		pw.zwPool.New = func() any { return bgzf.NewStageWriter(true) }
		pw.pipe = parpipe.NewOnPool(bgzf.SharedPool(), numColumns*(workers+1), pw.compress, obs.Default(), "bgzf.deflate")
	}
	pw.maxGroups = 1
	if pw.pipe != nil {
		pw.maxGroups = workers + 1
		pw.drained = make(chan struct{})
		go func() {
			defer close(pw.drained)
			for j := range pw.pipe.Out() {
				pw.retire(j)
			}
		}()
	}
	pw.free = make(chan *group, pw.maxGroups)
	return pw, nil
}

// Write encodes one alignment and appends it.
func (w *Writer) Write(rec *sam.Record) error {
	if w.err != nil {
		return w.err
	}
	body, err := bam.EncodeRecord(nil, rec, w.header)
	if err != nil {
		w.err = err
		return err
	}
	return w.WriteBody(body[4:])
}

// WriteBody appends one record given its BAM-encoded body (without the
// block_size prefix) — the zero-decode handoff conversions use. The body
// is split across the column buffers; nothing aliases it after return.
func (w *Writer) WriteBody(body []byte) error {
	if w.err != nil {
		return w.err
	}
	if len(body) < 32 {
		return w.fail(fmt.Errorf("%w: %d-byte record body", ErrCorrupt, len(body)))
	}
	nameLen, nCigar, seqLen, auxLen := bodyLens(body)
	if nameLen < 1 || auxLen < 0 {
		return w.fail(fmt.Errorf("%w: inconsistent record lengths (name %d, cigar %d, seq %d, aux %d)",
			ErrCorrupt, nameLen, nCigar, seqLen, auxLen))
	}
	refID, beg, end := bam.BodySpan(body)

	if w.g != nil && w.shouldCut(refID, len(body)) {
		if err := w.flushGroup(); err != nil {
			return err
		}
	}
	if w.g == nil {
		w.g = w.nextGroup()
		w.g.info.RefID = refID
		if refID >= 0 {
			w.g.info.Beg, w.g.info.End = int64(beg), int64(end)
		}
	} else if refID >= 0 {
		if int64(beg) < w.g.info.Beg {
			w.g.info.Beg = int64(beg)
		}
		if int64(end) > w.g.info.End {
			w.g.info.End = int64(end)
		}
	}

	cols := &w.g.cols
	cols[colCoord] = append(cols[colCoord], body[:32]...)
	cols[colCoord] = binary.LittleEndian.AppendUint32(cols[colCoord], uint32(auxLen))
	rest := body[32:]
	cols[colQName] = append(cols[colQName], rest[:nameLen]...)
	rest = rest[nameLen:]
	cols[colCigar] = append(cols[colCigar], rest[:4*nCigar]...)
	rest = rest[4*nCigar:]
	cols[colSeq] = append(cols[colSeq], rest[:(seqLen+1)/2]...)
	rest = rest[(seqLen+1)/2:]
	cols[colQual] = append(cols[colQual], rest[:seqLen]...)
	cols[colAux] = append(cols[colAux], rest[seqLen:]...)

	w.g.info.Records++
	w.count++
	return nil
}

// shouldCut reports whether the current group must close before a record
// of the given reference and body size joins it.
func (w *Writer) shouldCut(refID int32, bodyLen int) bool {
	if refID != w.g.info.RefID {
		return true
	}
	if w.opts.GroupRecords > 0 && w.g.info.Records >= int64(w.opts.GroupRecords) {
		return true
	}
	var buffered int64
	for c := 0; c < numColumns; c++ {
		buffered += int64(len(w.g.cols[c]))
	}
	// +4: the coordinate column stores the aux length alongside the prefix.
	return buffered+int64(bodyLen)+4 > w.opts.GroupBytes
}

// nextGroup returns an empty group: a retired one when available, a new
// one while fewer than maxGroups exist, otherwise the next the drain
// retires — the bound on groups in flight.
func (w *Writer) nextGroup() *group {
	select {
	case g := <-w.free:
		return g
	default:
	}
	if w.made < w.maxGroups {
		w.made++
		return &group{}
	}
	return <-w.free
}

// flushGroup hands the filled group's non-empty columns to the
// compressor, in column order.
func (w *Writer) flushGroup() error {
	if err := w.stageErr(); err != nil {
		return w.fail(err)
	}
	g := w.g
	w.g = nil
	w.cut++
	last := colCoord // an open group always holds coordinate bytes
	for c := range g.cols {
		if len(g.cols[c]) > 0 {
			last = c
		}
	}
	for c := 0; c <= last; c++ {
		if len(g.cols[c]) == 0 {
			continue
		}
		j := w.jobPool.Get().(*colJob)
		j.g, j.col, j.last = g, c, c == last
		if w.pipe != nil {
			w.pipe.Submit(j)
			continue
		}
		w.compress(j)
		w.retire(j)
	}
	if err := w.stageErr(); err != nil {
		return w.fail(err)
	}
	return nil
}

// compress is the stage function: deflate one column into its blob
// with a reused sequential BGZF writer.
func (w *Writer) compress(j *colJob) {
	zw := w.zw
	if zw == nil {
		zw = w.zwPool.Get().(*bgzf.Writer)
		defer w.zwPool.Put(zw)
	}
	zw.Reset(&j.blob)
	if _, j.err = zw.Write(j.g.cols[j.col]); j.err == nil {
		j.err = zw.Close()
	}
}

// retire is the drain: it appends one compressed column to the file
// and records its footer entry; a group's last column retires the
// group and recycles its buffers. After the first error it only
// recycles.
func (w *Writer) retire(j *colJob) {
	err := w.stageErr()
	if err == nil {
		err = j.err
	}
	if err == nil {
		blob := j.blob.Bytes()
		if _, err = w.w.Write(blob); err == nil {
			j.g.info.Cols[j.col] = colEntry{Off: w.off, CLen: int64(len(blob)), ULen: int64(len(j.g.cols[j.col]))}
			w.off += int64(len(blob))
		}
	}
	if err != nil {
		w.mu.Lock()
		if w.perr == nil {
			w.perr = err
		}
		w.mu.Unlock()
	}
	if j.last {
		g := j.g
		if err == nil {
			w.groups = append(w.groups, g.info)
		}
		g.info = GroupInfo{}
		for c := range g.cols {
			g.cols[c] = g.cols[c][:0]
		}
		w.free <- g
	}
	j.blob.Reset()
	j.g, j.err = nil, nil
	w.jobPool.Put(j)
}

func (w *Writer) stageErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.perr
}

func (w *Writer) fail(err error) error {
	w.err = err
	return err
}

// Count returns the records written so far.
func (w *Writer) Count() int64 { return w.count }

// Groups returns the column groups flushed so far (the open group, if
// any, is not counted until Close).
func (w *Writer) Groups() int { return w.cut }

// Close flushes the open group, stops the column compressor and writes
// the footer index and trailer. It does not close the underlying
// writer. After a failure it only stops the compressor and returns the
// error.
func (w *Writer) Close() error {
	if w.err == nil && w.g != nil {
		w.flushGroup()
	}
	if w.pipe != nil {
		// Every in-flight column lands before the footer is written:
		// off and groups are final once the drain exits.
		w.pipe.Close()
		<-w.drained
		w.pipe = nil
	}
	if w.err == nil {
		if err := w.stageErr(); err != nil {
			w.fail(err)
		}
	}
	if w.err != nil {
		return w.err
	}
	footer := EncodeFooter(w.groups)
	if _, err := w.w.Write(footer); err != nil {
		return w.fail(err)
	}
	tail := binary.LittleEndian.AppendUint64(nil, uint64(len(footer)))
	tail = append(tail, TrailerMagic...)
	if _, err := w.w.Write(tail); err != nil {
		return w.fail(err)
	}
	w.err = fmt.Errorf("pamx: writer closed")
	return nil
}
