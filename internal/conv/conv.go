// Package conv implements the paper's scalable sequence data format
// converter: the runtime system (partitioning, read buffers, textual/
// binary parsing, write buffers, per-processor target files) and the
// three converter instances of Section III —
//
//   - the SAM format converter (Algorithm 1 byte partitioning),
//   - the BAM format converter (sequential BAMX/BAIX preprocessing, then
//     embarrassingly parallel conversion with partial-conversion support),
//   - the preprocessing-optimized SAM format converter (parallel SAM→BAMX
//     preprocessing, then BAMX-based conversion).
//
// The "user program" side is a formats.Encoder: converting into a new
// format means writing one Encode function; partitioning, concurrency and
// file management stay in this runtime.
package conv

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"parseq/internal/bgzf"
	"parseq/internal/formats"
	"parseq/internal/mpi"
	"parseq/internal/sam"
)

// Region selects a chromosome region for partial conversion, 1-based
// inclusive on both ends. A zero End means "to the end of the reference".
type Region struct {
	RName string
	Beg   int32
	End   int32
}

// String renders the region in samtools syntax.
func (r Region) String() string {
	if r.End == 0 {
		return fmt.Sprintf("%s:%d-", r.RName, r.Beg)
	}
	return fmt.Sprintf("%s:%d-%d", r.RName, r.Beg, r.End)
}

// ParseRegion parses "chr1", "chr1:100-200" or "chr1:100-".
func ParseRegion(s string) (Region, error) {
	var r Region
	colon := -1
	for i := 0; i < len(s); i++ {
		if s[i] == ':' {
			colon = i
			break
		}
	}
	if colon < 0 {
		if s == "" {
			return r, fmt.Errorf("conv: empty region")
		}
		return Region{RName: s, Beg: 1}, nil
	}
	r.RName = s[:colon]
	if r.RName == "" {
		return r, fmt.Errorf("conv: region %q has no reference name", s)
	}
	rest := s[colon+1:]
	dash := -1
	for i := 0; i < len(rest); i++ {
		if rest[i] == '-' {
			dash = i
			break
		}
	}
	parse := func(t string) (int32, error) {
		var n int64
		if t == "" {
			return 0, fmt.Errorf("conv: empty coordinate in region %q", s)
		}
		for i := 0; i < len(t); i++ {
			if t[i] < '0' || t[i] > '9' {
				return 0, fmt.Errorf("conv: bad coordinate %q in region %q", t, s)
			}
			n = n*10 + int64(t[i]-'0')
			if n > 1<<31-1 {
				return 0, fmt.Errorf("conv: coordinate overflow in region %q", s)
			}
		}
		return int32(n), nil
	}
	if dash < 0 {
		beg, err := parse(rest)
		if err != nil {
			return r, err
		}
		r.Beg, r.End = beg, beg
		return r, nil
	}
	beg, err := parse(rest[:dash])
	if err != nil {
		return r, err
	}
	r.Beg = beg
	if rest[dash+1:] != "" {
		end, err := parse(rest[dash+1:])
		if err != nil {
			return r, err
		}
		if end < beg {
			return r, fmt.Errorf("conv: inverted region %q", s)
		}
		r.End = end
	}
	return r, nil
}

// Options configures one conversion.
type Options struct {
	// Format is the target format name (see formats.Names).
	Format string
	// Cores is the number of parallel ranks; 0 or 1 means sequential.
	Cores int
	// OutDir receives the per-rank target files.
	OutDir string
	// OutPrefix names the target files: <OutPrefix>_p<rank><ext>.
	OutPrefix string
	// Region restricts conversion to one chromosome region (partial
	// conversion). Only the BAMX-based converters support it.
	Region *Region
	// CodecWorkers is the number of BGZF codec goroutines used wherever
	// BAM streams are read or written. 0 (the default) selects the
	// adaptive count — one worker per CPU, capped (bgzf.AutoWorkers) —
	// so CLIs get the parallel codec without flags; 1 forces the
	// sequential codec (the paper-faithful baseline). The codec
	// parallelism is orthogonal to Cores: Cores splits records across
	// ranks, CodecWorkers pipelines block compression/decompression
	// under each stream.
	CodecWorkers int
	// ParseWorkers is the per-rank parse/encode worker count of the SAM
	// text engine: each rank's partition is cut into ~256 KiB batches of
	// whole lines, the batches are parsed and encoded in place (zero
	// per-line allocation) and drained in input order — output bytes and
	// error behaviour are the same at every worker count. 0 (the
	// default) selects the adaptive count, GOMAXPROCS/Cores clamped to
	// [1, 8]; 1 runs one worker, drained inline on the rank's own
	// goroutine (the sequential baseline). With ParseWorkers > 1, user
	// formats registered via formats.Register get one encoder instance
	// per worker, so their Encode must not rely on cross-record state.
	ParseWorkers int
	// Launch runs the converter's rank function across the world. Nil
	// (the default) selects mpi.Run — Cores goroutine ranks in this
	// process. A distributed launcher (mpinet.World.Launcher) executes
	// only the local process's rank, so Files, Stats and the shared
	// tally cover this rank alone; the per-rank target files on disk
	// are the cross-process ground truth.
	Launch mpi.Launcher

	// sharedCodec records that CodecWorkers was left at the adaptive
	// default: the short-lived per-rank BAM shard writers then attach to
	// the process-wide bgzf.SharedPool (sized from measured bytes/s per
	// worker) instead of each starting a private pool.
	sharedCodec bool
}

func (o *Options) normalize() error {
	if o.Format == "" {
		o.Format = "sam"
	}
	if o.Cores < 1 {
		o.Cores = 1
	}
	if o.CodecWorkers <= 0 {
		o.CodecWorkers = bgzf.AutoWorkers()
		o.sharedCodec = true
	}
	if o.ParseWorkers <= 0 {
		o.ParseWorkers = adaptiveParseWorkers(o.Cores)
	}
	if o.OutDir == "" {
		o.OutDir = "."
	}
	if o.OutPrefix == "" {
		o.OutPrefix = "out"
	}
	return nil
}

// launch resolves the Launch option, defaulting to the in-process world.
func (o *Options) launch() mpi.Launcher {
	if o.Launch != nil {
		return o.Launch
	}
	return mpi.Run
}

// outPath names rank r's target file.
func (o *Options) outPath(ext string, rank int) string {
	return filepath.Join(o.OutDir, fmt.Sprintf("%s_p%03d%s", o.OutPrefix, rank, ext))
}

// Stats aggregates counters over all ranks of a conversion.
type Stats struct {
	Records  int64 // alignment objects parsed
	Emitted  int64 // target objects written (skipped records excluded)
	BytesIn  int64 // input bytes consumed
	BytesOut int64 // target bytes written

	PartitionTime  time.Duration // Algorithm 1 / BAIX partitioning
	ConvertTime    time.Duration // parallel conversion phase (wall clock)
	PreprocessTime time.Duration // preprocessing phase, when one ran
}

// Result reports a completed conversion.
type Result struct {
	Files []string // per-rank target files, rank order
	Stats Stats
}

// counters is the shared atomic tally ranks add into.
type counters struct {
	records  atomic.Int64
	emitted  atomic.Int64
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
}

func (c *counters) into(s *Stats) {
	s.Records = c.records.Load()
	s.Emitted = c.emitted.Load()
	s.BytesIn = c.bytesIn.Load()
	s.BytesOut = c.bytesOut.Load()
}

// writeBufSize is the per-rank write buffer (the paper's "write buffer"
// between the user program and the target file). It batches only small
// writes: records from the record-at-a-time converters and short runs
// from the pipelined drain, whose runs of this size or more go straight
// to the file (writeBatch).
const writeBufSize = 64 << 10

// writerPool recycles the per-rank write buffers across ranks and
// conversions: a region query touches a few kilobytes of output, and
// zeroing a fresh buffer for every rank of every call would cost more
// than the query itself.
var writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, writeBufSize) }}

// rankWriter is one rank's buffered target file.
type rankWriter struct {
	f   *os.File
	bw  *bufio.Writer
	n   int64
	enc formats.Encoder
}

// newRankWriter creates rank r's target file; rank 0 carries the format's
// prologue (e.g. the SAM header or the BEDGRAPH track line).
func newRankWriter(opts *Options, enc formats.Encoder, h *sam.Header, rank int) (*rankWriter, error) {
	f, err := os.Create(opts.outPath(enc.Extension(), rank))
	if err != nil {
		return nil, err
	}
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(f)
	w := &rankWriter{f: f, bw: bw, enc: enc}
	if rank == 0 {
		if hdr := enc.Header(h); len(hdr) > 0 {
			if _, err := w.bw.Write(hdr); err != nil {
				w.close()
				return nil, err
			}
			w.n += int64(len(hdr))
		}
	}
	return w, nil
}

// emit converts one record and writes the target object, reusing buf.
func (w *rankWriter) emit(buf []byte, rec *sam.Record, h *sam.Header) ([]byte, bool, error) {
	out, err := w.enc.Encode(buf[:0], rec, h)
	if err != nil {
		return buf, false, err
	}
	if len(out) == 0 {
		return out, false, nil
	}
	if _, err := w.bw.Write(out); err != nil {
		return out, false, err
	}
	w.n += int64(len(out))
	return out, true, nil
}

// writeBatch writes one pre-encoded run of target bytes. Batch-sized
// runs from the pipelined drain go straight to the file — copying a
// 256 KiB run through the bufio buffer only to flush it moments later
// would memmove the entire output once for nothing — while small runs
// keep the buffer's syscall batching.
func (w *rankWriter) writeBatch(p []byte) error {
	if len(p) < writeBufSize {
		if _, err := w.bw.Write(p); err != nil {
			return err
		}
		w.n += int64(len(p))
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if _, err := w.f.Write(p); err != nil {
		return err
	}
	w.n += int64(len(p))
	return nil
}

// close flushes and closes the target file and hands the write buffer
// back to the pool. A second close is refused: the buffer may already
// belong to another rank.
func (w *rankWriter) close() error {
	bw := w.bw
	if bw == nil {
		return os.ErrClosed
	}
	w.bw = nil
	err := bw.Flush()
	bw.Reset(nil)
	writerPool.Put(bw)
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
