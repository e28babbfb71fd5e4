package main

import (
	"path/filepath"
	"time"

	"parseq/internal/conv"
	"parseq/internal/flagstat"
)

// convertReads sizes the convert input: about 109 MB of SAM, more than
// the 105 MiB last-level cache of the reference host, so the converter
// streams from memory rather than cache.
const convertReads = 400_000

// convertFixture is an unsorted, aligner-order SAM and the references
// its conversions are checked against.
type convertFixture struct {
	b       *bench
	sam     string
	size    int64
	n       int64
	fastq   digest
	bed     digest
	flagRef flagstat.Stats
}

func setupConvert(b *bench, dir string) (fixture, error) {
	fx := &convertFixture{b: b, sam: filepath.Join(dir, "in.sam")}
	if err := mkdir(dir); err != nil {
		return nil, err
	}
	err := b.timeSetup("simdata.generate_s", func() error {
		d := generate(b.cfg.seed, b.scaled(convertReads, 200), false)
		fx.n = int64(len(d.Records))
		var err error
		fx.size, err = writeSAM(d, fx.sam)
		if err != nil {
			return err
		}
		return b.timeSetup("setup.reference_s", func() error {
			if fx.fastq, err = encodeDigest(d, "fastq"); err != nil {
				return err
			}
			if fx.bed, err = encodeDigest(d, "bed"); err != nil {
				return err
			}
			fx.flagRef = flagstat.Of(d.Records)
			return nil
		})
	})
	return fx, err
}

func (fx *convertFixture) inputBytes() int64 { return fx.size }
func (fx *convertFixture) records() int64    { return fx.n }

// pass is the paper's SAM converter (Fig 6), its single-thread
// baseline, the preprocessing-optimized SAM converter (Figs 9, 10) and
// a flagstat scan over the same SAM.
func (fx *convertFixture) pass(p *pass) error {
	nproc := p.b.cfg.nproc
	out := p.out
	var fastqPar, seq, psamPre, psamConv time.Duration

	convertOpts := func(format, prefix string, cores, parse int) conv.Options {
		return conv.Options{Format: format, Cores: cores, ParseWorkers: parse, OutDir: out, OutPrefix: prefix}
	}
	var res *conv.Result
	timed := func(d *time.Duration, metric, span string, fn func() error) error {
		start := time.Now()
		err := p.call(metric, span, fn)
		*d += time.Since(start)
		return err
	}
	stats := func(r *conv.Result) {
		p.add("conv.partition_s", r.Stats.PartitionTime.Seconds())
		p.add("conv.bytes_out", float64(r.Stats.BytesOut))
	}

	for _, c := range []struct {
		format string
		want   digest
	}{{"fastq", fx.fastq}, {"bed", fx.bed}} {
		var d time.Duration
		err := timed(&d, "conv.sam_convert_s", "conv.ConvertSAM", func() (err error) {
			res, err = conv.ConvertSAM(fx.sam, convertOpts(c.format, "par_"+c.format, nproc, 0))
			return err
		})
		if err != nil {
			return err
		}
		if c.format == "fastq" {
			fastqPar = d
		}
		stats(res)
		p.checkFiles("ConvertSAM "+c.format, res.Files, c.want)
	}

	err := timed(&seq, "conv.sam_seq_s", "conv.ConvertSAM.seq", func() (err error) {
		res, err = conv.ConvertSAM(fx.sam, convertOpts("fastq", "seq", 1, 1))
		return err
	})
	if err != nil {
		return err
	}
	stats(res)
	p.checkFiles("ConvertSAM fastq sequential", res.Files, fx.fastq)

	var pre *conv.PreprocessResult
	err = timed(&psamPre, "conv.psam_preprocess_s", "conv.PreprocessSAMParallel", func() (err error) {
		pre, err = conv.PreprocessSAMParallel(fx.sam, out, "psam", nproc)
		return err
	})
	if err != nil {
		return err
	}
	err = timed(&psamConv, "conv.bamx_convert_s", "conv.ConvertPreprocessed", func() (err error) {
		res, err = conv.ConvertPreprocessed(pre.BAMXFiles, pre.BAIXFiles, convertOpts("fastq", "psam", nproc, 0))
		return err
	})
	if err != nil {
		return err
	}
	stats(res)
	p.checkFiles("ConvertPreprocessed fastq", res.Files, fx.fastq)

	var st flagstat.Stats
	err = p.call("flagstat.sam_s", "flagstat.SAMFile", func() (err error) {
		st, err = flagstat.SAMFile(fx.sam, nproc)
		return err
	})
	if err != nil {
		return err
	}
	p.check("flagstat.SAMFile", st == fx.flagRef, "got %+v, want %+v", st, fx.flagRef)

	// Speedups against the sequential SAM→FASTQ path on the same input
	// and output format; the preprocessing-optimized converter is
	// charged its preprocessing.
	p.set("conv.sam_speedup", ratio(seq, fastqPar))
	p.set("conv.psam_speedup", ratio(seq, psamPre+psamConv))
	return nil
}

// checkFiles queues a digest comparison of the concatenated outputs.
func (p *pass) checkFiles(what string, files []string, want digest) {
	files = append([]string(nil), files...)
	p.afterPass(func() {
		got, err := filesDigest(files)
		if err != nil {
			p.check(what, false, "reading output: %v", err)
			return
		}
		p.check(what, got == want, "output %v, reference %v", got, want)
	})
}

func ratio(base, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return base.Seconds() / d.Seconds()
}
