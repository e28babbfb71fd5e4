package conv

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"parseq/internal/bamx"
	"parseq/internal/mpi"
	"parseq/internal/obs"
	"parseq/internal/partition"
	"parseq/internal/sam"
)

// PreprocessSAMParallel is the preprocessing phase of the
// preprocessing-optimized SAM format converter (Section III-C): the SAM
// input is partitioned with Algorithm 1, and each of the M ranks converts
// its text partition into a separate binary BAMX file with a BAIX index.
// Unlike the BAM preprocessor this phase parallelises, because SAM's line
// breakers make the partitioning possible.
func PreprocessSAMParallel(samPath, outDir, prefix string, cores int) (*PreprocessResult, error) {
	return PreprocessSAMParallelWorkers(samPath, outDir, prefix, cores, 0)
}

// PreprocessSAMParallelWorkers is PreprocessSAMParallel with an
// explicit per-rank parse worker count: parseWorkers > 1 parses and
// encodes each rank's text partition on that many workers ("conv.parse"
// stage), 1 runs one worker drained inline on the rank's goroutine, and
// ≤ 0 selects the adaptive count (GOMAXPROCS/cores, clamped).
func PreprocessSAMParallelWorkers(samPath, outDir, prefix string, cores, parseWorkers int) (*PreprocessResult, error) {
	return PreprocessSAMParallelLaunch(samPath, outDir, prefix, cores, parseWorkers, nil)
}

// PreprocessSAMParallelLaunch is PreprocessSAMParallelWorkers with an
// explicit launcher; nil selects the in-process mpi.Run. Under a
// distributed launcher each process preprocesses and records only its
// own rank's BAMX/BAIX pair — the files on disk are the shared result.
func PreprocessSAMParallelLaunch(samPath, outDir, prefix string, cores, parseWorkers int, launch mpi.Launcher) (*PreprocessResult, error) {
	if launch == nil {
		launch = mpi.Run
	}
	if cores < 1 {
		cores = 1
	}
	if parseWorkers <= 0 {
		parseWorkers = adaptiveParseWorkers(cores)
	}
	if prefix == "" {
		prefix = "pre"
	}
	start := time.Now()
	f, err := os.Open(samPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	header, dataStart, err := scanHeader(f)
	if err != nil {
		return nil, err
	}

	res := &PreprocessResult{
		BAMXFiles: make([]string, cores),
		BAIXFiles: make([]string, cores),
	}
	var tally counters
	ph := obs.NewPhaseSet(obs.Default())
	err = launch(cores, func(c *mpi.Comm) error {
		psp := ph.Start(c.Rank(), "partition")
		br, err := partition.SAMForwardMPI(c, f, dataStart, fi.Size())
		psp.End()
		if err != nil {
			return err
		}
		esp := ph.Start(c.Rank(), "preprocess")
		defer esp.End()
		bamxPath := filepath.Join(outDir, fmt.Sprintf("%s_m%03d.bamx", prefix, c.Rank()))
		baixPath := filepath.Join(outDir, fmt.Sprintf("%s_m%03d.baix", prefix, c.Rank()))
		n, err := preprocessSAMRange(samPath, br, header, bamxPath, baixPath, parseWorkers)
		if err != nil {
			return err
		}
		tally.records.Add(n)
		res.BAMXFiles[c.Rank()] = bamxPath
		res.BAIXFiles[c.Rank()] = baixPath
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Records = tally.records.Load()
	res.Duration = time.Since(start)
	return res, nil
}

// preprocessSAMRange turns one rank's text partition into a BAMX file
// plus BAIX index. The engine (pipeline.go) encodes the partition into
// BAM records batch by batch — the same stage SAM→BAM runs — and the
// drain appends them to one arena, which bamx.Build then measures and
// lays out in the fixed-stride form.
func preprocessSAMRange(samPath string, br partition.ByteRange, h *sam.Header,
	bamxPath, baixPath string, parseWorkers int) (int64, error) {

	// BAM bodies are about as long as the SAM text they came from, so
	// the partition's length is the arena's first guess.
	arena := make([]byte, 0, br.Len())
	var n int64
	err := runSAMRange(samPath, br, parseWorkers, "conv.parse", encodeBAMBatch(h), func(b *lineBatch) error {
		arena = append(arena, b.out...)
		n += b.emitted
		return nil
	})
	if err != nil {
		return 0, err
	}
	out, err := os.Create(bamxPath)
	if err != nil {
		return 0, err
	}
	idx, err := bamx.Build(out, h, arena)
	if err != nil {
		out.Close()
		return 0, err
	}
	if err := out.Close(); err != nil {
		return 0, err
	}
	ixf, err := os.Create(baixPath)
	if err != nil {
		return 0, err
	}
	if _, err := idx.WriteTo(ixf); err != nil {
		ixf.Close()
		return 0, err
	}
	return n, ixf.Close()
}

// ConvertPreprocessed runs the parallel conversion phase of the
// preprocessing-optimized SAM converter: each of the M BAMX files is
// converted in turn by N ranks, yielding M×N target files as the paper
// describes. baixFiles may be nil when no partial conversion is needed.
func ConvertPreprocessed(bamxFiles, baixFiles []string, opts Options) (*Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if len(bamxFiles) == 0 {
		return nil, fmt.Errorf("conv: no BAMX files to convert")
	}
	total := &Result{}
	basePrefix := opts.OutPrefix
	for m, bamxPath := range bamxFiles {
		baix := ""
		if m < len(baixFiles) {
			baix = baixFiles[m]
		}
		sub := opts
		sub.OutPrefix = fmt.Sprintf("%s_m%03d", basePrefix, m)
		r, err := ConvertBAMX(bamxPath, baix, sub)
		if err != nil {
			return nil, err
		}
		total.Files = append(total.Files, r.Files...)
		total.Stats.Records += r.Stats.Records
		total.Stats.Emitted += r.Stats.Emitted
		total.Stats.BytesIn += r.Stats.BytesIn
		total.Stats.BytesOut += r.Stats.BytesOut
		total.Stats.PartitionTime += r.Stats.PartitionTime
		total.Stats.ConvertTime += r.Stats.ConvertTime
	}
	return total, nil
}

// ConvertSAMPreprocessed is the complete preprocessing-optimized SAM
// format converter: parallel SAM→BAMX preprocessing with preCores ranks,
// then parallel conversion with opts.Cores ranks. The returned Result's
// PreprocessTime carries the preprocessing phase separately, since the
// paper reports (and amortises) it separately.
func ConvertSAMPreprocessed(samPath string, preCores int, opts Options) (*Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	// Under a distributed launcher both phases run on the same world, so
	// preCores must equal opts.Cores there (the launcher checks).
	pre, err := PreprocessSAMParallelLaunch(samPath, opts.OutDir, opts.OutPrefix+"_pre", preCores, opts.ParseWorkers, opts.Launch)
	if err != nil {
		return nil, err
	}
	res, err := ConvertPreprocessed(pre.BAMXFiles, pre.BAIXFiles, opts)
	if err != nil {
		return nil, err
	}
	res.Stats.PreprocessTime = pre.Duration
	return res, nil
}
