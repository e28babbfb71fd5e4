package conv

import (
	"os"

	"parseq/internal/bamx"
	"parseq/internal/formats"
	"parseq/internal/sam"
)

// CompressBAMXFile rewrites a plain BAMX file as a compressed one (the
// paper's Section VII compression extension). The BAIX index is
// unchanged: record indices are preserved, so an existing index keeps
// working against the compressed file.
func CompressBAMXFile(bamxPath, bamzPath string, recsPerBlock int) (int64, error) {
	return CompressBAMXFileWorkers(bamxPath, bamzPath, recsPerBlock, 0)
}

// CompressBAMXFileWorkers is CompressBAMXFile with block deflation
// fanned out over `workers` goroutines.
func CompressBAMXFileWorkers(bamxPath, bamzPath string, recsPerBlock, workers int) (int64, error) {
	in, err := os.Open(bamxPath)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	fi, err := in.Stat()
	if err != nil {
		return 0, err
	}
	xf, err := bamx.Open(in, fi.Size())
	if err != nil {
		return 0, err
	}
	out, err := os.Create(bamzPath)
	if err != nil {
		return 0, err
	}
	n, err := bamx.CompressBAMXWorkers(xf, out, recsPerBlock, workers)
	if err != nil {
		out.Close()
		return 0, err
	}
	return n, out.Close()
}

// ConvertBAMZ is ConvertBAMX for compressed BAMX files: the same
// equal-record partitioning and optional BAIX-backed partial conversion,
// with each rank decompressing only the blocks its records live in.
func ConvertBAMZ(bamzPath, baixPath string, opts Options) (*Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	enc, err := formats.New(opts.Format)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(bamzPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	zf, err := bamx.OpenCompressed(f, fi.Size())
	if err != nil {
		return nil, err
	}
	// A compressed file cannot be rescanned through the plain-file
	// path, so partial conversion requires its BAIX.
	return convertFixedStride(bamzPath, baixPath, zf.Header(), zf.NumRecords(), zf.Caps().Stride(), nil,
		&opts, enc, convertBAMZRange)
}

// convertBAMZRange converts the record runs of one rank, each rank
// holding its own CompressedFile (and block cache).
func convertBAMZRange(path string, runs [][2]int64, enc formats.Encoder, opts *Options, rank int) (rangeStats, error) {
	in, err := os.Open(path)
	if err != nil {
		return rangeStats{}, err
	}
	defer in.Close()
	fi, err := in.Stat()
	if err != nil {
		return rangeStats{}, err
	}
	zf, err := bamx.OpenCompressed(in, fi.Size())
	if err != nil {
		return rangeStats{}, err
	}
	if opts.CodecWorkers > 1 {
		// Inflate ahead of the record loop. The codec worker budget is
		// shared across ranks; even a single readahead worker overlaps
		// decompression with conversion.
		per := opts.CodecWorkers / opts.Cores
		if per < 1 {
			per = 1
		}
		zf.StartReadahead(per)
		defer zf.Close()
	}
	var i, end int64
	return drainRecords(opts, enc, zf.Header(), rank, func(rec *sam.Record) (bool, error) {
		for i == end {
			if len(runs) == 0 {
				return false, nil
			}
			i, end = runs[0][0], runs[0][1]
			runs = runs[1:]
		}
		i++
		return true, zf.ReadRecord(i-1, rec)
	})
}
