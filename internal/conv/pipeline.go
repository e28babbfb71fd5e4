// The per-rank engine of every SAM-text path (format conversion,
// SAM→BAM shards, SAM→BAMX preprocessing). One rank's byte range is
// cut into ~256 KiB batches of whole lines, each batch is parsed in
// place (sam.ParseRecordIntoBytes — zero per-line allocation) and
// encoded into a pooled output buffer, and the batches are drained in
// input order into the rank's target:
//
//	cut:     subslices of the mmap'd partition, or pooled chunks read
//	         from the file when mapping fails (boundary lines stitched
//	         through a dedicated carry buffer),
//	process: parse + encode one batch,
//	drain:   write (or collect) each batch's output in input order.
//
// With ParseWorkers > 1 the cut runs on its own goroutine and process
// fans out across an order-preserving parpipe stage in the mould of
// bam.ParallelScanner; with one worker the caller cuts, processes and
// drains each batch inline, with no goroutines at all. Either way the
// output bytes and the first error surfaced are the same — delivery is
// in input order, and each batch stops at its first bad line.

package conv

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"parseq/internal/bam"
	"parseq/internal/obs"
	"parseq/internal/parpipe"
	"parseq/internal/partition"
	"parseq/internal/sam"
)

// maxSAMLineBytes caps one alignment line. The old converter silently
// capped lines at bufio.Scanner's 4 MiB default and surfaced a bare
// "token too long"; long-read SAM (ONT ultralong alignments carry
// multi-megabyte SEQ/QUAL plus CIGAR) hit it in practice. Lines up to
// this limit are allowed and the offending line's file offset is
// reported when it is exceeded. A var so tests can exercise the limit
// without half-gigabyte fixtures.
var maxSAMLineBytes = 512 << 20

// errLineTooLong is the over-limit error, raised by the cutter and the
// per-line check alike.
func errLineTooLong(fileOff int64) error {
	return fmt.Errorf("conv: SAM line starting at file offset %d exceeds the %d byte line limit: %w",
		fileOff, maxSAMLineBytes, bufio.ErrTooLong)
}

// adaptiveParseWorkers sizes a rank's parse/encode pool when the knob
// is zero: the ranks already occupy Cores CPUs, so each gets its share
// of the remaining parallelism, clamped like the codec's AutoWorkers.
func adaptiveParseWorkers(cores int) int {
	if cores < 1 {
		cores = 1
	}
	w := runtime.GOMAXPROCS(0) / cores
	if w < 1 {
		w = 1
	}
	if w > 8 {
		w = 8
	}
	return w
}

// batchBytes is the target batch size: large enough to amortise
// per-batch channel traffic and goroutine handoffs over thousands of
// records (on a loaded core each handoff costs a scheduler pass), small
// enough that the in-flight window of batches stays memory-friendly and
// a rank's section still splits into enough batches to balance across
// the workers.
const batchBytes = 256 << 10

// lineBatch is the engine's unit of work: one run of whole input lines
// on the way in; encoded output bytes plus tallies on the way out.
type lineBatch struct {
	chunk   []byte // whole input lines (nil when err is a cut error)
	base    int64  // absolute file offset of chunk[0]
	out     []byte // encoded target bytes (pooled)
	records int64  // records parsed
	emitted int64  // records that produced output
	err     error  // first parse/encode error, or the cut error
}

// batchSource cuts a rank's byte range into runs of whole lines. next
// returns io.EOF once the range is exhausted; release hands a drained
// chunk back.
type batchSource interface {
	next() (chunk []byte, base int64, err error)
	release(chunk []byte)
}

// mappedCutter cuts a memory-mapped partition: batches are plain
// subslices of the mapping ended at line boundaries — no reads, no
// copies. Releasing a batch drops the mapping's pages behind it.
type mappedCutter struct {
	mapped  []byte // the whole file's mapping
	data    []byte // the partition: mapped[base:end]
	off     int
	base    int64 // absolute file offset of data[0]
	drained int   // bytes of data released so far
	dropped int   // mapped[:dropped] is given back to the kernel
}

func newMappedCutter(mapped []byte, br partition.ByteRange) *mappedCutter {
	return &mappedCutter{
		mapped:  mapped,
		data:    mapped[br.Start:br.End],
		base:    br.Start,
		dropped: int(br.Start) &^ (os.Getpagesize() - 1),
	}
}

func (m *mappedCutter) next() ([]byte, int64, error) {
	off := m.off
	if off >= len(m.data) {
		return nil, 0, io.EOF
	}
	end := off + batchBytes
	if end >= len(m.data) {
		end = len(m.data)
	} else if i := bytes.LastIndexByte(m.data[off:end], '\n'); i >= 0 {
		end = off + i + 1
	} else if j := bytes.IndexByte(m.data[end:], '\n'); j >= 0 {
		// One line longer than a batch: the batch becomes that whole
		// line, and the per-line limit check enforces maxSAMLineBytes
		// with the right offset.
		end += j + 1
	} else {
		end = len(m.data)
	}
	m.off = end
	return m.data[off:end], m.base + int64(off), nil
}

// release drops the whole pages before the end of a drained batch from
// the process, so a mapped SAM does not stay resident until the rank
// unmaps it. Batches drain in cut order, so everything before the
// batch's end is done with; a page the next batch shares is kept.
func (m *mappedCutter) release(chunk []byte) {
	m.drained += len(chunk)
	end := (int(m.base) + m.drained) &^ (os.Getpagesize() - 1)
	if end > m.dropped {
		dropPages(m.mapped[m.dropped:end])
		m.dropped = end
	}
}

// batchScanner is the streamed fallback: it reads pooled chunks of
// whole lines. The partial line at a chunk's end is copied into a
// dedicated carry buffer and prepended to the next chunk — copied, not
// aliased, so recycling a chunk can never corrupt a boundary line in
// flight (the same stitching discipline as bam.BodyScanner's carry).
type batchScanner struct {
	r     io.Reader
	carry []byte
	off   int64 // absolute file offset of the next chunk's first byte
	eof   bool
}

// next returns the next chunk of whole lines and the absolute offset of
// its first byte. The final chunk may lack a trailing newline, exactly
// as bufio.ScanLines delivers a final unterminated line.
func (s *batchScanner) next() ([]byte, int64, error) {
	if s.eof && len(s.carry) == 0 {
		return nil, 0, io.EOF
	}
	chunk := chunkPool.Get().([]byte)[:0]
	chunk = append(chunk, s.carry...)
	s.carry = s.carry[:0]
	for {
		for !s.eof && len(chunk) < cap(chunk) {
			n, err := s.r.Read(chunk[len(chunk):cap(chunk)])
			chunk = chunk[:len(chunk)+n]
			if err == io.EOF {
				s.eof = true
				break
			}
			if err != nil {
				return nil, 0, err
			}
		}
		if s.eof {
			if len(chunk) == 0 {
				return nil, 0, io.EOF
			}
			base := s.off
			s.off += int64(len(chunk))
			return chunk, base, nil
		}
		if i := bytes.LastIndexByte(chunk, '\n'); i >= 0 {
			s.carry = append(s.carry[:0], chunk[i+1:]...)
			base := s.off
			s.off += int64(i + 1)
			return chunk[:i+1], base, nil
		}
		// No newline in the whole chunk: its first (and only) line is
		// longer than the chunk. Grow and keep reading, up to the line
		// limit — chunk[0] is always a line start, so the offending
		// line's offset is the chunk's.
		if len(chunk) >= maxSAMLineBytes {
			return nil, 0, errLineTooLong(s.off)
		}
		grown := cap(chunk) * 2
		if grown > maxSAMLineBytes {
			grown = maxSAMLineBytes
		}
		bigger := make([]byte, len(chunk), grown)
		copy(bigger, chunk)
		chunk = bigger
	}
}

// release returns a chunk to the pool. Chunks grown past batchBytes by
// a long line stay out, keeping the shared population uniformly sized.
func (s *batchScanner) release(chunk []byte) {
	if cap(chunk) == batchBytes {
		chunkPool.Put(chunk[:0])
	}
}

// cutLine splits data at the first newline with bufio.ScanLines
// semantics: the line excludes the newline and a trailing carriage
// return; without a newline the remainder is the final line.
func cutLine(data []byte) (line, rest []byte) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line, rest = data[:i], data[i+1:]
	} else {
		line, rest = data, nil
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, rest
}

// The batch buffer pools are process-wide: every engine cuts chunks of
// the same capacity, so ranks and successive conversions reuse one warm
// buffer population instead of each run allocating (and the runtime
// zeroing) a fresh in-flight window.
var (
	chunkPool = sync.Pool{New: func() any { return make([]byte, 0, batchBytes) }}
	// Output buffers start at the batch size: most targets emit at most
	// about as many bytes as they read, so a full-size buffer avoids the
	// append-doubling copies a nil slice would pay on its first batches.
	outPool   = sync.Pool{New: func() any { return make([]byte, 0, batchBytes) }}
	batchPool = sync.Pool{New: func() any { return &lineBatch{} }}
)

// mmapInput maps the input file; tests swap it for a failing stub to
// drive the streamed-chunk fallback.
var mmapInput = mmapFile

// runSAMRange runs one rank's byte range of samPath through the engine:
// process parses and encodes a batch, drain consumes the processed
// batches in input order. With workers > 1 process runs on a parpipe
// stage registered under name ("conv.encode", "conv.parse"); otherwise
// everything runs inline on the caller. The run stops at the first
// error in stream order — drain's own, or the batch's — after drain has
// seen that batch's good prefix.
func runSAMRange(samPath string, br partition.ByteRange, workers int, name string,
	process func(*lineBatch), drain func(*lineBatch) error) error {

	in, err := os.Open(samPath)
	if err != nil {
		return err
	}
	defer in.Close()
	var src batchSource
	if mapped, unmap, err := mmapInput(in); err == nil {
		// The mapping must outlive every batch: all are drained before
		// this function returns.
		defer unmap()
		src = newMappedCutter(mapped, br)
	} else {
		src = &batchScanner{r: io.NewSectionReader(in, br.Start, br.Len()), off: br.Start}
	}
	return runBatches(src, workers, 4*workers, name, process, drain)
}

// runBatches is runSAMRange over an open batch source, with at most
// depth batches in flight on the parallel stage.
func runBatches(src batchSource, workers, depth int, name string,
	process func(*lineBatch), drain func(*lineBatch) error) error {

	recycle := func(b *lineBatch) {
		if b.chunk != nil {
			src.release(b.chunk)
		}
		outPool.Put(b.out[:0])
		*b = lineBatch{}
		batchPool.Put(b)
	}
	finish := func(b *lineBatch) error {
		err := drain(b)
		if err == nil {
			err = b.err
		}
		recycle(b)
		return err
	}

	if workers <= 1 {
		for {
			b := nextBatch(src)
			if b == nil {
				return nil
			}
			process(b)
			if err := finish(b); err != nil {
				return err
			}
		}
	}

	pipe := parpipe.NewObserved(workers, depth, process, obs.Default(), name)
	var stop atomic.Bool
	go func() {
		defer pipe.Close()
		for !stop.Load() {
			b := nextBatch(src)
			if b == nil {
				return
			}
			cutErr := b.err // b belongs to the pipe once submitted
			pipe.Submit(b)
			if cutErr != nil {
				return
			}
		}
	}()
	var firstErr error
	for b := range pipe.Out() {
		if firstErr != nil {
			recycle(b) // past the first error: discard the in-flight tail
			continue
		}
		if firstErr = finish(b); firstErr != nil {
			stop.Store(true)
		}
	}
	return firstErr
}

// nextBatch cuts the next batch from src, or returns nil at the end of
// the range. A cut error travels as the batch's err, so the drain sees
// it after every complete batch before it.
func nextBatch(src batchSource) *lineBatch {
	chunk, base, err := src.next()
	if err == io.EOF {
		return nil
	}
	b := batchPool.Get().(*lineBatch)
	b.chunk, b.base, b.err = chunk, base, err
	b.out = outPool.Get().([]byte)[:0]
	return b
}

// parseBatchLines drives one batch's line loop: every non-empty line is
// parsed in place into rec and handed to emit. On any error the batch
// stops there, recording it — batches are independent, and the ordered
// drain surfaces the first error in stream order.
func parseBatchLines(b *lineBatch, rec *sam.Record, emit func(*sam.Record) error) {
	if b.err != nil {
		return
	}
	data := b.chunk
	rel := int64(0)
	for len(data) > 0 {
		line, rest := cutLine(data)
		if len(line) >= maxSAMLineBytes {
			// The cutter refuses a line of at least the limit too.
			b.err = errLineTooLong(b.base + rel)
			return
		}
		rel += int64(len(data) - len(rest))
		data = rest
		if len(line) == 0 {
			continue
		}
		if err := sam.ParseRecordIntoBytes(rec, line); err != nil {
			b.err = err
			return
		}
		b.records++
		if err := emit(rec); err != nil {
			b.err = err
			return
		}
	}
}

// encodeBAMBatch is the process stage shared by SAM→BAM and SAM→BAMX:
// each record becomes its block_size-prefixed BAM body (bam.EncodeRecord)
// appended to the batch output.
func encodeBAMBatch(h *sam.Header) func(*lineBatch) {
	return func(b *lineBatch) {
		var rec sam.Record
		parseBatchLines(b, &rec, func(r *sam.Record) error {
			enc, err := bam.EncodeRecord(b.out, r, h)
			if err != nil {
				return err
			}
			b.out = enc
			b.emitted++
			return nil
		})
	}
}
