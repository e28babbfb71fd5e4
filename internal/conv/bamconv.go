package conv

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"parseq/internal/bamx"
	"parseq/internal/formats"
	"parseq/internal/mpi"
	"parseq/internal/obs"
	"parseq/internal/sam"
)

// PreprocessResult reports a preprocessing phase.
type PreprocessResult struct {
	BAMXFiles []string      // generated BAMX files (one per preprocessing rank)
	BAIXFiles []string      // matching BAIX index files
	Records   int64         // records preprocessed
	Duration  time.Duration // wall-clock preprocessing time
}

// PreprocessBAMFile is the sequential preprocessing phase of the BAM
// format converter: BAM in, BAMX + BAIX out. The BAM format's lack of
// record delimiters forces this phase to be sequential (Section III-B).
func PreprocessBAMFile(bamPath, bamxPath, baixPath string) (*PreprocessResult, error) {
	return PreprocessBAMFileWorkers(bamPath, bamxPath, baixPath, 0)
}

// PreprocessBAMFileWorkers is PreprocessBAMFile with BGZF inflation
// running on codecWorkers goroutines: the record scan stays sequential
// (the format forces that), but block decompression pipelines under it.
func PreprocessBAMFileWorkers(bamPath, bamxPath, baixPath string, codecWorkers int) (*PreprocessResult, error) {
	start := time.Now()
	sp := obs.Default().StartSpan(0, 0, "preprocess")
	defer sp.End()
	in, err := os.Open(bamPath)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	out, err := os.Create(bamxPath)
	if err != nil {
		return nil, err
	}
	idx, err := bamx.PreprocessBAMWorkers(in, out, codecWorkers)
	if err != nil {
		out.Close()
		return nil, err
	}
	if err := out.Close(); err != nil {
		return nil, err
	}
	ixf, err := os.Create(baixPath)
	if err != nil {
		return nil, err
	}
	if _, err := idx.WriteTo(ixf); err != nil {
		ixf.Close()
		return nil, err
	}
	if err := ixf.Close(); err != nil {
		return nil, err
	}
	return &PreprocessResult{
		BAMXFiles: []string{bamxPath},
		BAIXFiles: []string{baixPath},
		Records:   int64(idx.Len()),
		Duration:  time.Since(start),
	}, nil
}

// ConvertBAMSequential converts a BAM file record-at-a-time on one core —
// the paper's "BAM format converter without preprocessing" Table I
// configuration. It reproduces the BamTools adaptation the paper blames
// for its 30% deficit: the library-side memory object is copied into the
// converter's alignment object before the user program runs.
func ConvertBAMSequential(bamPath string, opts Options) (*Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if opts.Region != nil {
		return nil, fmt.Errorf("conv: sequential BAM conversion does not support partial conversion; preprocess to BAMX first")
	}
	enc, err := formats.New(opts.Format)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(bamPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	br, err := newBAMToolsReader(f, opts.CodecWorkers)
	if err != nil {
		return nil, err
	}
	defer br.Close()
	ph := obs.NewPhaseSet(obs.Default())
	csp := ph.Start(0, "convert")
	stats, err := drainRecords(&opts, enc, br.Header(), 0, br.Next)
	if err != nil {
		return nil, err
	}
	csp.End()
	res := Result{Files: []string{opts.outPath(enc.Extension(), 0)}}
	res.Stats.Records, res.Stats.Emitted = stats.records, stats.emitted
	res.Stats.BytesIn, res.Stats.BytesOut = fi.Size(), stats.bytesOut
	res.Stats.ConvertTime = ph.Wall("convert")
	return &res, nil
}

// ConvertBAMX is the parallel conversion phase of the BAM format
// converter (and of the preprocessing-optimized SAM converter): the
// fixed-stride BAMX file is divided into partitions holding an equal
// number of records, retrieved by random access and converted with no
// inter-rank communication. With opts.Region set, the BAIX index maps the
// chromosome region to a contiguous record range first (partial
// conversion); baixPath may be empty for full conversion.
func ConvertBAMX(bamxPath, baixPath string, opts Options) (*Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	enc, err := formats.New(opts.Format)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(bamxPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	xf, err := bamx.Open(f, fi.Size())
	if err != nil {
		return nil, err
	}
	return convertFixedStride(bamxPath, baixPath, xf.Header(), xf.NumRecords(), xf.Stride(), xf,
		&opts, enc, convertBAMXRange)
}

// rankConverter converts one rank's share of a fixed-stride file, given
// as runs of consecutive record indices, into that rank's target file.
type rankConverter func(path string, runs [][2]int64, enc formats.Encoder, opts *Options, rank int) (rangeStats, error)

// convertFixedStride is the partition and parallel phase shared by the
// BAMX and BAMZ converters. The unit of partitioning is either every
// one of the file's records, or the BAIX region's entries for partial
// conversion (with rebuild as the index fallback, see
// bamx.LookupRegion); each rank takes an equal share of the units.
func convertFixedStride(path, baixPath string, h *sam.Header, records int64, stride int, rebuild *bamx.File,
	opts *Options, enc formats.Encoder, convertRange rankConverter) (*Result, error) {

	ph := obs.NewPhaseSet(obs.Default())
	psp := ph.Start(0, "partition")
	count := int(records)
	var entries []bamx.Entry
	if r := opts.Region; r != nil {
		var err error
		entries, err = bamx.LookupRegion(baixPath, h, r.RName, r.Beg, r.End, rebuild)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.Index < 0 || e.Index >= records {
				return nil, fmt.Errorf("%w: BAIX entry for record %d, file holds %d", bamx.ErrCorrupt, e.Index, records)
			}
		}
		count = len(entries)
	}
	psp.End()

	var res Result
	res.Files = make([]string, opts.Cores)
	var tally counters
	err := opts.launch()(opts.Cores, func(c *mpi.Comm) error {
		csp := ph.Start(c.Rank(), "convert")
		defer csp.End()
		lo, hi := c.SplitRange(count)
		runs := [][2]int64{{int64(lo), int64(hi)}}
		if opts.Region != nil {
			runs = recordRuns(entries[lo:hi])
		}
		stats, err := convertRange(path, runs, enc, opts, c.Rank())
		if err != nil {
			return err
		}
		tally.records.Add(stats.records)
		tally.emitted.Add(stats.emitted)
		tally.bytesIn.Add(int64(hi-lo) * int64(stride))
		tally.bytesOut.Add(stats.bytesOut)
		res.Files[c.Rank()] = opts.outPath(enc.Extension(), c.Rank())
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Stats.PartitionTime = ph.Wall("partition")
	res.Stats.ConvertTime = ph.Wall("convert")
	tally.into(&res.Stats)
	return &res, nil
}

// recordRuns groups region entries into runs of consecutive record
// indices. A BAMX preprocessed from a sorted BAM stores its records in
// BAIX order, so a region is a single run.
func recordRuns(entries []bamx.Entry) [][2]int64 {
	var runs [][2]int64
	for _, e := range entries {
		if n := len(runs); n > 0 && runs[n-1][1] == e.Index {
			runs[n-1][1]++
		} else {
			runs = append(runs, [2]int64{e.Index, e.Index + 1})
		}
	}
	return runs
}

// ConvertBAM is the complete BAM format converter of Section III-B:
// sequential preprocessing into a temporary BAMX/BAIX pair, then
// embarrassingly parallel conversion of the fixed-stride file. The
// temporary files live under OutDir (same filesystem as the output) and
// are removed when the conversion finishes. PreprocessTime carries the
// sequential phase separately, as the paper reports it.
func ConvertBAM(bamPath string, opts Options) (*Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	tmpDir, err := os.MkdirTemp(opts.OutDir, ".parseq-pre-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmpDir)
	bamxPath := filepath.Join(tmpDir, "pre.bamx")
	baixPath := filepath.Join(tmpDir, "pre.baix")
	pre, err := PreprocessBAMFileWorkers(bamPath, bamxPath, baixPath, opts.CodecWorkers)
	if err != nil {
		return nil, err
	}
	res, err := ConvertBAMX(bamxPath, baixPath, opts)
	if err != nil {
		return nil, err
	}
	res.Stats.PreprocessTime = pre.Duration
	return res, nil
}

// convertBAMXRange converts the record runs of one rank, each through
// one chunked scan: a run costs one read per megabyte, not one per
// record.
func convertBAMXRange(path string, runs [][2]int64, enc formats.Encoder, opts *Options, rank int) (rangeStats, error) {
	// Each rank opens its own descriptor, as each MPI process would.
	in, err := os.Open(path)
	if err != nil {
		return rangeStats{}, err
	}
	defer in.Close()
	fi, err := in.Stat()
	if err != nil {
		return rangeStats{}, err
	}
	xf, err := bamx.Open(in, fi.Size())
	if err != nil {
		return rangeStats{}, err
	}
	scan := xf.Scan(0, 0)
	return drainRecords(opts, enc, xf.Header(), rank, func(rec *sam.Record) (bool, error) {
		for {
			if ok, err := scan.Next(rec); ok || err != nil || len(runs) == 0 {
				return ok, err
			}
			scan.Reset(runs[0][0], runs[0][1])
			runs = runs[1:]
		}
	})
}

// drainRecords converts every record next yields into rank's target
// file: the rank loop of the record-at-a-time converters.
func drainRecords(opts *Options, enc formats.Encoder, h *sam.Header, rank int,
	next func(*sam.Record) (bool, error)) (rangeStats, error) {

	var stats rangeStats
	w, err := newRankWriter(opts, enc, h, rank)
	if err != nil {
		return stats, err
	}
	var rec sam.Record
	var out []byte
	for {
		ok, err := next(&rec)
		if ok && err == nil {
			stats.records++
			var emitted bool
			if out, emitted, err = w.emit(out, &rec, h); emitted {
				stats.emitted++
			}
		}
		if err != nil {
			w.close()
			return stats, err
		}
		if !ok {
			break
		}
	}
	stats.bytesOut = w.n
	return stats, w.close()
}
