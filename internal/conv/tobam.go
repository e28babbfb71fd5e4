package conv

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"parseq/internal/bam"
	"parseq/internal/mpi"
	"parseq/internal/obs"
	"parseq/internal/partition"
	"parseq/internal/sam"
)

// ConvertSAMToBAM converts a SAM file into BAM in parallel: Algorithm 1
// partitions the text, each rank encodes its records into a separate BAM
// shard (each a complete, valid BAM file carrying the header), and the
// shards can be fused with MergeBAMShards. This is the converter's
// binary-target path — SAM/BAM is in the paper's target-format list
// alongside the text formats.
func ConvertSAMToBAM(samPath string, opts Options) (*Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if opts.Region != nil {
		return nil, fmt.Errorf("conv: SAM→BAM does not support partial conversion; preprocess to BAMX first")
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
		outPath := filepath.Join(opts.OutDir, fmt.Sprintf("%s_p%03d.bam", opts.OutPrefix, c.Rank()))
		n, bytesOut, err := encodeSAMRangeToBAM(samPath, br, header, outPath, &opts)
		if err != nil {
			return err
		}
		tally.records.Add(n)
		tally.emitted.Add(n)
		tally.bytesIn.Add(br.Len())
		tally.bytesOut.Add(bytesOut)
		res.Files[c.Rank()] = outPath
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

// encodeSAMRangeToBAM encodes one text partition as a standalone BAM
// file: the engine (pipeline.go) parses and binary-encodes whole
// batches (bam.EncodeRecord) and the drain hands the pre-encoded bytes
// to the shard writer in order — BGZF framing is write-granularity
// independent, so the shard's bytes do not depend on the batching. An
// adaptive CodecWorkers attaches the shard's compression to the
// process-wide shared deflate pool.
func encodeSAMRangeToBAM(samPath string, br partition.ByteRange, h *sam.Header, outPath string, opts *Options) (int64, int64, error) {
	out, err := os.Create(outPath)
	if err != nil {
		return 0, 0, err
	}
	bw, err := bam.NewWriter(out, h, shardCodecOptions(opts)...)
	if err != nil {
		out.Close()
		return 0, 0, err
	}
	live := newLiveProgress()
	var n int64
	err = runSAMRange(samPath, br, opts.ParseWorkers, "conv.encode", encodeBAMBatch(h), func(b *lineBatch) error {
		n += b.emitted
		live.batch(b.records, int64(len(b.chunk)), int64(len(b.out)))
		return bw.WriteEncoded(b.out)
	})
	if err != nil {
		bw.Close() // release codec workers before abandoning the shard
		out.Close()
		return 0, 0, err
	}
	if err := bw.Close(); err != nil {
		out.Close()
		return 0, 0, err
	}
	fi, err := out.Stat()
	if err != nil {
		out.Close()
		return 0, 0, err
	}
	return n, fi.Size(), out.Close()
}

// shardCodecOptions picks the codec wiring of one BAM shard writer:
// when CodecWorkers was left adaptive the shard attaches to the
// process-wide shared deflate pool (bgzf.SharedPool) — the many
// short-lived writers ConvertSAMToBAM spawns per rank stop paying a
// pool start/stop each — while an explicit worker count keeps the
// per-stream pool or the sequential codec.
func shardCodecOptions(opts *Options) []bam.Option {
	if opts.sharedCodec {
		return []bam.Option{bam.WithSharedCodec()}
	}
	return []bam.Option{bam.WithCodecWorkers(opts.CodecWorkers)}
}

// MergeBAMShards fuses per-rank BAM shards (which share one header) into
// a single BAM file, streaming records in shard order.
func MergeBAMShards(shardPaths []string, outPath string) (int64, error) {
	return MergeBAMShardsWorkers(shardPaths, outPath, 0)
}

// MergeBAMShardsWorkers is MergeBAMShards with both the shard decode and
// the fused encode running codecWorkers BGZF goroutines per stream.
func MergeBAMShardsWorkers(shardPaths []string, outPath string, codecWorkers int) (int64, error) {
	if len(shardPaths) == 0 {
		return 0, fmt.Errorf("conv: no shards to merge")
	}
	first, err := os.Open(shardPaths[0])
	if err != nil {
		return 0, err
	}
	firstReader, err := bam.NewReader(first)
	if err != nil {
		first.Close()
		return 0, err
	}
	header := firstReader.Header()
	firstReader.Close()
	first.Close()

	out, err := os.Create(outPath)
	if err != nil {
		return 0, err
	}
	bw, err := bam.NewWriter(out, header, bam.WithCodecWorkers(codecWorkers))
	if err != nil {
		out.Close()
		return 0, err
	}
	var total int64
	var rec sam.Record
	fail := func(f *os.File, r *bam.Reader, err error) (int64, error) {
		if r != nil {
			r.Close()
		}
		if f != nil {
			f.Close()
		}
		bw.Close()
		out.Close()
		return total, err
	}
	for _, shard := range shardPaths {
		f, err := os.Open(shard)
		if err != nil {
			return fail(nil, nil, err)
		}
		r, err := bam.NewReader(f, bam.WithCodecWorkers(codecWorkers))
		if err != nil {
			return fail(f, nil, err)
		}
		if len(r.Header().Refs) != len(header.Refs) {
			return fail(f, r, fmt.Errorf("conv: shard %s has %d references, expected %d",
				shard, len(r.Header().Refs), len(header.Refs)))
		}
		for {
			if err := r.ReadInto(&rec); err == io.EOF {
				break
			} else if err != nil {
				return fail(f, r, err)
			}
			if err := bw.Write(&rec); err != nil {
				return fail(f, r, err)
			}
			total++
		}
		r.Close()
		f.Close()
	}
	if err := bw.Close(); err != nil {
		out.Close()
		return total, err
	}
	return total, out.Close()
}
