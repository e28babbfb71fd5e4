package conv

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"

	"parseq/internal/formats"
	"parseq/internal/mpi"
	"parseq/internal/obs"
	"parseq/internal/partition"
	"parseq/internal/sam"
)

// scanHeader reads the header section of a SAM file and returns the
// parsed header plus the byte offset where alignment data starts.
func scanHeader(f *os.File) (*sam.Header, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	h := sam.NewHeader()
	br := bufio.NewReaderSize(f, 64<<10)
	var offset int64
	for {
		peek, err := br.Peek(1)
		if err == io.EOF {
			return h, offset, nil
		}
		if err != nil {
			return nil, 0, err
		}
		if peek[0] != '@' {
			return h, offset, nil
		}
		line, err := br.ReadString('\n')
		if err != nil && err != io.EOF {
			return nil, 0, err
		}
		offset += int64(len(line))
		trimmed := line
		if n := len(trimmed); n > 0 && trimmed[n-1] == '\n' {
			trimmed = trimmed[:n-1]
		}
		if n := len(trimmed); n > 0 && trimmed[n-1] == '\r' {
			trimmed = trimmed[:n-1]
		}
		if err := h.ParseHeaderLine(trimmed); err != nil {
			return nil, 0, err
		}
		if err == io.EOF {
			return h, offset, nil
		}
	}
}

// ConvertSAM is the paper's SAM format converter: the input file is
// evenly partitioned by bytes with Algorithm 1's line-breaker adjustment,
// and each rank independently parses its partition's records and emits
// target objects to its own file. There is no inter-rank communication
// after partitioning.
func ConvertSAM(samPath string, opts Options) (*Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if opts.Region != nil {
		return nil, fmt.Errorf("conv: the SAM format converter does not support partial conversion; preprocess to BAMX first")
	}
	enc, err := formats.New(opts.Format)
	if err != nil {
		return nil, err
	}
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

	var res Result
	res.Files = make([]string, opts.Cores)
	var tally counters

	// Phase spans carry the timing decomposition on every rank, not just
	// rank 0: PartitionTime/ConvertTime are the spans' wall-clock windows
	// across ranks, and the same spans land in the trace when enabled.
	ph := obs.NewPhaseSet(obs.Default())
	err = opts.launch()(opts.Cores, func(c *mpi.Comm) error {
		psp := ph.Start(c.Rank(), "partition")
		br, err := partition.SAMForwardMPI(c, f, dataStart, fi.Size())
		psp.End()
		if err != nil {
			return err
		}
		addBytesTotal(br.Len()) // the /progress ETA denominator
		csp := ph.Start(c.Rank(), "convert")
		defer csp.End()
		stats, err := convertSAMRange(samPath, br, header, &opts, c.Rank())
		if err != nil {
			return err
		}
		tally.records.Add(stats.records)
		tally.emitted.Add(stats.emitted)
		tally.bytesIn.Add(br.Len())
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

type rangeStats struct {
	records  int64
	emitted  int64
	bytesOut int64
}

// convertSAMRange is one rank's work: the engine (pipeline.go) parses
// the rank's byte range batch by batch, runs the user program (the
// format encoder) over every record and drains the encoded batches in
// input order into the rank's target file. Each parse worker draws its
// own encoder instance, since user-registered encoders may hold
// per-run state that is not safe to share across goroutines; one
// worker uses the rank's own encoder throughout.
func convertSAMRange(samPath string, br partition.ByteRange, h *sam.Header,
	opts *Options, rank int) (rangeStats, error) {

	var stats rangeStats
	enc, err := formats.New(opts.Format)
	if err != nil {
		return stats, err
	}
	w, err := newRankWriter(opts, enc, h, rank)
	if err != nil {
		return stats, err
	}
	encPool := sync.Pool{New: func() any {
		e, _ := formats.New(opts.Format)
		return e
	}}
	process := func(b *lineBatch) {
		e := enc
		if opts.ParseWorkers > 1 {
			e = encPool.Get().(formats.Encoder)
			defer encPool.Put(e)
		}
		var rec sam.Record
		parseBatchLines(b, &rec, func(r *sam.Record) error {
			n := len(b.out)
			out, err := e.Encode(b.out, r, h)
			if err != nil {
				return err
			}
			b.out = out
			if len(out) != n {
				b.emitted++
			}
			return nil
		})
	}
	live := newLiveProgress()
	err = runSAMRange(samPath, br, opts.ParseWorkers, "conv.encode", process, func(b *lineBatch) error {
		stats.records += b.records
		stats.emitted += b.emitted
		live.batch(b.records, int64(len(b.chunk)), int64(len(b.out)))
		if len(b.out) == 0 {
			return nil
		}
		return w.writeBatch(b.out)
	})
	if err != nil {
		w.close()
		return stats, err
	}
	stats.bytesOut = w.n
	return stats, w.close()
}
