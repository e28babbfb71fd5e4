// Package sorter coordinate-sorts alignment datasets, the precondition
// for every index in this repository (BAI binning, BAIX starting
// positions) and for the paper's sorted 117 GB BAM input. The sort is an
// external merge sort in the samtools mould over encoded BAM record
// bodies: the input streams into bounded in-memory chunks of
// block_size-prefixed bodies, chunks sort in parallel workers on a
// coordinate key read straight from each body and spill as sorted
// temporary runs, and a k-way merge of the runs' bodies writes the
// output. Records are never decoded: SAM input is parsed and encoded
// once by the converter's batch engine (conv.EncodeSAM), BAM input
// bodies are validated (bam.CheckRecord) and passed through verbatim.
// Unmapped records sort after all mapped ones, as samtools does.
package sorter

import (
	"cmp"
	"compress/flate"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"parseq/internal/bam"
	"parseq/internal/bgzf"
	"parseq/internal/conv"
	"parseq/internal/obs"
	"parseq/internal/sam"
)

// Options tunes the sort.
type Options struct {
	// ChunkRecords is the number of records sorted in memory per run
	// (default 100k ≈ tens of MB for short reads).
	ChunkRecords int
	// Cores sorts chunks with this many parallel workers; SAM input is
	// also parsed and encoded on as many (1 parses inline on the
	// caller).
	Cores int
	// TmpDir receives the temporary runs; "" uses the OS default.
	TmpDir string
	// CodecWorkers is the BGZF codec worker budget. The BAM input
	// reader gets the full budget, while spilled runs and merge readers
	// share it, clamped per stream so many runs do not multiply the
	// goroutine count. 0 selects the adaptive default
	// (bgzf.AutoWorkers); 1 forces the sequential codec. Orthogonal to
	// Cores, exactly as in the converter runtime.
	CodecWorkers int
	// SharedCodec attaches the spill and merge BGZF writers to the
	// process-wide bgzf shared deflate pool (bgzf.SharedPool) instead
	// of giving each short-lived stream its own CodecWorkers
	// goroutines. With many parallel spill workers this keeps the
	// codec goroutine count at the pool's throughput-sized level
	// rather than Cores × per-stream. It defaults on whenever
	// CodecWorkers is left adaptive, matching the converter's shard
	// writers; an explicit CodecWorkers keeps private per-stream pools.
	SharedCodec bool
}

func (o *Options) normalize() {
	if o.ChunkRecords < 1 {
		o.ChunkRecords = 100_000
	}
	if o.Cores < 1 {
		o.Cores = 1
	}
	if o.CodecWorkers <= 0 {
		o.CodecWorkers = bgzf.AutoWorkers()
		o.SharedCodec = true
	}
}

// runLevel is the flate level of the temporary runs. A run is written
// once, read once by the merge and deleted, so speed beats ratio: on a
// BAM body stream Go's level 1 deflates about seven times faster than
// the default level 6, for runs about 12% larger. The output keeps the
// default level.
const runLevel = flate.BestSpeed

// perStreamWorkers divides one codec worker budget across streams that
// are open simultaneously (parallel spill writers, merge readers).
func perStreamWorkers(budget, streams int) int {
	if streams < 1 {
		streams = 1
	}
	per := budget / streams
	if per < 1 {
		per = 1
	}
	return per
}

// bodyKey packs a record's coordinate sort key from its encoded body:
// the reference ID in the high word — unmapped records and records with
// no reference in the header map past every reference — and the
// sign-flipped 0-based position in the low word, so unsigned comparison
// orders by (reference, position).
func bodyKey(body []byte, nRefs int32) uint64 {
	refID := int32(binary.LittleEndian.Uint32(body[0:]))
	pos := binary.LittleEndian.Uint32(body[4:])
	flag := sam.Flag(binary.LittleEndian.Uint16(body[14:]))
	if refID < 0 || refID >= nRefs || flag.Unmapped() {
		refID = math.MaxInt32
	}
	return uint64(uint32(refID))<<32 | uint64(pos^1<<31)
}

// chunk is one in-memory run: block_size-prefixed record bodies back to
// back, and one (key, offset) entry per record.
type chunk struct {
	idx  int
	data []byte
	ents []entry
}

// entry locates one record of a chunk: its sort key and the offset of
// its block_size prefix in the chunk's data. Offsets grow with input
// order, so ordering equal keys by offset keeps the sort stable.
type entry struct {
	key uint64
	off int
}

func (c *chunk) add(body []byte, nRefs int32) {
	c.ents = append(c.ents, entry{key: bodyKey(body, nRefs), off: len(c.data)})
	c.data = binary.LittleEndian.AppendUint32(c.data, uint32(len(body)))
	c.data = append(c.data, body...)
}

// record returns entry e's block_size-prefixed bytes.
func (c *chunk) record(e entry) []byte {
	n := 4 + int(binary.LittleEndian.Uint32(c.data[e.off:]))
	return c.data[e.off : e.off+n]
}

func (c *chunk) sort() {
	slices.SortFunc(c.ents, func(a, b entry) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		return cmp.Compare(a.off, b.off)
	})
}

// SortSAMToBAM sorts a SAM file into a coordinate-sorted BAM file.
func SortSAMToBAM(samPath, outPath string, opts Options) (int64, error) {
	opts.normalize()
	var s *sorter
	err := conv.EncodeSAM(samPath, opts.Cores, func(h *sam.Header) (err error) {
		s, err = newSorter(h, opts)
		return err
	}, func(bodies []byte) error {
		for len(bodies) > 0 {
			n := 4 + int(binary.LittleEndian.Uint32(bodies))
			if err := s.add(bodies[4:n]); err != nil {
				return err
			}
			bodies = bodies[n:]
		}
		return nil
	})
	if s == nil {
		return 0, err
	}
	return s.finish(err, outPath)
}

// SortBAM sorts a BAM file into a coordinate-sorted BAM file. Record
// bodies pass through verbatim once bam.CheckRecord accepts them.
func SortBAM(bamPath, outPath string, opts Options) (int64, error) {
	opts.normalize()
	in, err := os.Open(bamPath)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	br, err := bam.NewReader(in, bam.WithCodecWorkers(opts.CodecWorkers))
	if err != nil {
		return 0, err
	}
	defer br.Close()
	s, err := newSorter(br.Header(), opts)
	if err != nil {
		return 0, err
	}
	sc := bam.NewBodyScanner(br)
	for {
		body, err := sc.Next()
		if err == io.EOF {
			return s.finish(nil, outPath)
		}
		if err == nil {
			err = bam.CheckRecord(body)
		}
		if err == nil {
			err = s.add(body)
		}
		if err != nil {
			return s.finish(err, outPath)
		}
	}
}

// sorter is one sort in flight: the input side cuts chunks, Cores spill
// workers sort them and write the runs, and finish merges.
type sorter struct {
	header *sam.Header // the output header: the input's, coordinate-sorted
	nRefs  int32
	opts   Options
	tmpDir string
	phases *obs.PhaseSet
	spill  obs.PhaseSpan

	cur       *chunk
	chunks    int   // chunks handed to the spill workers
	total     int64 // records added
	lastBytes int   // the last chunk handed over: new chunks are sized
	lastRecs  int   // like it
	jobs      chan *chunk
	free      chan *chunk // emptied chunks, reused by the input side
	wg        sync.WaitGroup

	mu  sync.Mutex
	err error // first spill error
}

func newSorter(h *sam.Header, opts Options) (*sorter, error) {
	tmpDir, err := os.MkdirTemp(opts.TmpDir, "parseq-sort-")
	if err != nil {
		return nil, err
	}
	header := h.Clone()
	header.SortOrder = sam.SortCoordinate
	s := &sorter{
		header: header,
		nRefs:  int32(len(header.Refs)),
		opts:   opts,
		tmpDir: tmpDir,
		phases: obs.NewPhaseSet(obs.Default()),
		// An unbuffered handoff bounds the chunks in memory to one per
		// spill worker plus the one filling, which is also the most the
		// free list can be asked to hold.
		jobs: make(chan *chunk),
		free: make(chan *chunk, opts.Cores+1),
	}
	s.spill = s.phases.Start(0, "sort.spill")
	codecWorkers := perStreamWorkers(opts.CodecWorkers, opts.Cores)
	for w := 0; w < opts.Cores; w++ {
		s.wg.Add(1)
		go s.spillWorker(codecWorkers)
	}
	return s, nil
}

// add appends one record body to the current chunk, handing the chunk
// to the spill workers once it holds ChunkRecords records.
func (s *sorter) add(body []byte) error {
	if s.cur == nil {
		select {
		case s.cur = <-s.free:
		default:
			// Size a new chunk like the last full one, with slack for
			// longer records, sparing the growth copies of an arena
			// built up from empty.
			s.cur = &chunk{data: make([]byte, 0, s.lastBytes+s.lastBytes/8), ents: make([]entry, 0, s.lastRecs)}
		}
	}
	s.cur.add(body, s.nRefs)
	s.total++
	if len(s.cur.ents) < s.opts.ChunkRecords {
		return nil
	}
	return s.flush()
}

func (s *sorter) flush() error {
	if err := s.spillErr(); err != nil {
		return err
	}
	s.cur.idx = s.chunks
	s.chunks++
	s.lastBytes, s.lastRecs = len(s.cur.data), len(s.cur.ents)
	s.jobs <- s.cur
	s.cur = nil
	return nil
}

func (s *sorter) spillErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// spillWorker sorts chunks and writes each as a run. After the first
// error it only recycles chunks, so the input side never blocks.
func (s *sorter) spillWorker(codecWorkers int) {
	defer s.wg.Done()
	for c := range s.jobs {
		if s.spillErr() == nil {
			c.sort()
			if err := s.writeRun(c, codecWorkers); err != nil {
				s.mu.Lock()
				if s.err == nil {
					s.err = err
				}
				s.mu.Unlock()
			}
		}
		c.data, c.ents = c.data[:0], c.ents[:0]
		select {
		case s.free <- c:
		default:
		}
	}
}

func (s *sorter) runPath(idx int) string {
	return filepath.Join(s.tmpDir, fmt.Sprintf("run%06d.bam", idx))
}

// writerOpts selects the codec of one output or run writer.
func (s *sorter) writerOpts(codecWorkers, level int) []bam.Option {
	opts := []bam.Option{bam.WithLevel(level)}
	if s.opts.SharedCodec {
		return append(opts, bam.WithSharedCodec())
	}
	return append(opts, bam.WithCodecWorkers(codecWorkers))
}

// writeRun spills one sorted chunk as a BAM run at runLevel.
func (s *sorter) writeRun(c *chunk, codecWorkers int) error {
	f, err := os.Create(s.runPath(c.idx))
	if err != nil {
		return err
	}
	w, err := bam.NewWriter(f, s.header, s.writerOpts(codecWorkers, runLevel)...)
	if err == nil {
		for _, e := range c.ents {
			if err = w.WriteEncoded(c.record(e)); err != nil {
				break
			}
		}
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// finish spills the last chunk, waits for the spill workers and merges
// the runs into outPath. err is the input side's error, if any: the
// workers still stop and the temporary runs are still removed.
func (s *sorter) finish(err error, outPath string) (int64, error) {
	defer os.RemoveAll(s.tmpDir)
	if err == nil && s.cur != nil && len(s.cur.ents) > 0 {
		err = s.flush()
	}
	close(s.jobs)
	s.wg.Wait()
	s.spill.End()
	if err == nil {
		err = s.spillErr()
	}
	if err != nil {
		return 0, err
	}
	reg := obs.Default()
	reg.Counter("sorter.records").Add(s.total)
	reg.Counter("sorter.runs").Add(int64(s.chunks))

	merge := s.phases.Start(0, "sort.merge")
	defer merge.End()
	if err := s.merge(outPath); err != nil {
		os.Remove(outPath)
		return 0, err
	}
	return s.total, nil
}

// runHead is one run's next record in the merge heap.
type runHead struct {
	key  uint64
	run  int
	body []byte // valid until sc.Next
	sc   *bam.BodyScanner
}

// mergeHeap orders run heads by key; equal keys go to the earlier run,
// which holds the earlier input records, keeping the sort stable.
type mergeHeap []runHead

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].run < h[j].run
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(runHead)) }
func (h *mergeHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// merge streams the runs' bodies through the heap into the output BAM
// at the default level.
func (s *sorter) merge(outPath string) error {
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	w, err := bam.NewWriter(out, s.header, s.writerOpts(s.opts.CodecWorkers, flate.DefaultCompression)...)
	if err != nil {
		out.Close()
		return err
	}
	err = s.mergeInto(w)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *sorter) mergeInto(w *bam.Writer) error {
	// Every run stays open at once; clamp the per-run codec worker count
	// so k runs never cost k × budget goroutines.
	runWorkers := perStreamWorkers(s.opts.CodecWorkers, s.chunks)
	h := make(mergeHeap, 0, s.chunks)
	for i := 0; i < s.chunks; i++ {
		f, err := os.Open(s.runPath(i))
		if err != nil {
			return err
		}
		defer f.Close()
		r, err := bam.NewReader(f, bam.WithCodecWorkers(runWorkers))
		if err != nil {
			return err
		}
		defer r.Close()
		sc := bam.NewBodyScanner(r)
		body, err := sc.Next()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return err
		}
		h = append(h, runHead{key: bodyKey(body, s.nRefs), run: i, body: body, sc: sc})
	}
	heap.Init(&h)
	var size [4]byte
	for len(h) > 0 {
		top := &h[0]
		binary.LittleEndian.PutUint32(size[:], uint32(len(top.body)))
		if err := w.WriteEncoded(size[:]); err != nil {
			return err
		}
		if err := w.WriteEncoded(top.body); err != nil {
			return err
		}
		body, err := top.sc.Next()
		switch {
		case err == io.EOF:
			heap.Pop(&h)
		case err != nil:
			return err
		default:
			top.body, top.key = body, bodyKey(body, s.nRefs)
			heap.Fix(&h, 0)
		}
	}
	return nil
}
