package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"parseq/internal/bam"
	"parseq/internal/conv"
	"parseq/internal/fdr"
	"parseq/internal/flagstat"
	"parseq/internal/formats/pamx"
	"parseq/internal/hist"
	"parseq/internal/mpi"
	"parseq/internal/nlmeans"
	"parseq/internal/peaks"
	"parseq/internal/shard"
	"parseq/internal/simdata"
)

// Analyze sizing. The NL-means parameters are the ngsstat example's
// (R=80, L=15, sigma=10); a 10-base bin keeps the denoiser a minority
// of the pass so read-path changes stay visible. The FDR threshold and
// peak options are ngsstat's defaults.
const (
	analyzeReads  = 100_000
	regionQueries = 100
	coverageRef   = "chr1"
	coverageBin   = 10
	fdrSims       = 20
	fdrThreshold  = 1
	peakMaxGap    = 1
	peakMinWidth  = 2
)

var (
	// regionWidths are the query widths in per-mille of the chromosome,
	// cycled so every seed asks for the same mix of sizes. simdata
	// spreads reads evenly over chromosomes, so a fixed share of one
	// holds about the same number of records whichever it is.
	regionWidths   = []int{5, 10, 20, 40}
	denoiseParams  = nlmeans.Params{R: 80, L: 15, Sigma: 10}
	peakCandidates = []float64{1, 2, 5, 10, 20}
)

// analyzeFixture is a coordinate-sorted, indexed BAM with a PAMX copy,
// the FDR simulations, the region list, and the references.
type analyzeFixture struct {
	bam, pamx string
	size      int64
	n         int64
	sims      [][]float64
	regions   []conv.Region
	regionRef []int

	samRef   digest
	flagRef  flagstat.Stats
	coverage []float64
	denoised []float64
	fdrRef   float64
	peaksRef []peaks.Peak
	peakPT   float64
	peakFDR  float64
}

func setupAnalyze(b *bench, dir string) (fixture, error) {
	fx := &analyzeFixture{
		bam:  filepath.Join(dir, "in.bam"),
		pamx: filepath.Join(dir, "in.pamx"),
	}
	if err := mkdir(dir); err != nil {
		return nil, err
	}
	var d *simdata.Dataset
	err := b.timeSetup("simdata.generate_s", func() error {
		d = generate(b.cfg.seed, b.scaled(analyzeReads, 200), true)
		fx.n = int64(len(d.Records))
		var err error
		if fx.size, err = writeBAM(d, fx.bam, b.cfg.nproc); err != nil {
			return err
		}
		if err := writeIndex(fx.bam); err != nil {
			return err
		}
		_, err = pamx.FromBAM(fx.bam, fx.pamx, pamx.Options{CodecWorkers: b.cfg.nproc})
		return err
	})
	if err != nil {
		return nil, err
	}
	err = b.timeSetup("setup.reference_s", func() error {
		var err error
		if fx.samRef, err = encodeDigest(d, "sam"); err != nil {
			return err
		}
		fx.flagRef = flagstat.Of(d.Records)
		h, err := hist.Coverage(d.Records, d.Header, coverageRef, coverageBin)
		if err != nil {
			return err
		}
		fx.coverage = h.Bins
		if fx.denoised, err = nlmeans.Denoise(fx.coverage, denoiseParams); err != nil {
			return err
		}
		fx.sims = simdata.Simulations(fdrSims, len(fx.coverage), b.cfg.seed)
		if fx.fdrRef, err = fdr.Sequential(fx.denoised, fx.sims, fdrThreshold); err != nil {
			return err
		}
		fx.peaksRef, fx.peakPT, fx.peakFDR, err = peaks.CallWithFDR(fx.denoised, fx.sims, peakCandidates,
			peaks.Options{MaxGap: peakMaxGap, MinWidth: peakMinWidth})
		if err != nil {
			return err
		}
		return fx.pickRegions(d, rand.New(rand.NewSource(b.cfg.seed)))
	})
	return fx, err
}

// pickRegions draws the partial-conversion queries (1-based inclusive)
// and answers each through the BAM index: the records whose alignment
// starts inside the region, which is what BAIX partial conversion
// selects (bam.CountRegion counts overlaps instead).
func (fx *analyzeFixture) pickRegions(d *simdata.Dataset, rng *rand.Rand) error {
	idxf, err := os.Open(fx.bam + ".bai")
	if err != nil {
		return err
	}
	idx, err := bam.ReadIndex(idxf)
	idxf.Close()
	if err != nil {
		return err
	}
	f, err := os.Open(fx.bam)
	if err != nil {
		return err
	}
	defer f.Close()
	br, err := bam.NewReader(f)
	if err != nil {
		return err
	}
	defer br.Close()
	refs := d.Header.Refs
	for i := 0; i < regionQueries; i++ {
		ref := refs[rng.Intn(len(refs))]
		width := ref.Length * regionWidths[i%len(regionWidths)] / 1000
		beg := 1 + rng.Intn(ref.Length-width+1)
		r := conv.Region{RName: ref.Name, Beg: int32(beg), End: int32(beg + width - 1)}
		rr, err := bam.NewShardRegionReader(br, idx, r.RName, int(r.Beg)-1, int(r.End))
		if err != nil {
			return err
		}
		n := 0
		for {
			if _, err := rr.NextBody(); err == io.EOF {
				break
			} else if err != nil {
				return err
			}
			n++
		}
		fx.regions = append(fx.regions, r)
		fx.regionRef = append(fx.regionRef, n)
	}
	return nil
}

func (fx *analyzeFixture) inputBytes() int64 { return fx.size }
func (fx *analyzeFixture) records() int64    { return fx.n }

// pass is the read path over the sorted BAM: the BAM converter with its
// sequential preprocessing counted (Fig 7), flagstat three ways, the
// coverage → NL-means → FDR → peaks chain, and the region partial
// conversions (Fig 8).
func (fx *analyzeFixture) pass(p *pass) error {
	nproc := p.b.cfg.nproc
	bamx := filepath.Join(p.out, "in.bamx")
	baix := filepath.Join(p.out, "in.baix")
	err := p.call("conv.bam_preprocess_s", "conv.PreprocessBAMFileWorkers", func() error {
		_, err := conv.PreprocessBAMFileWorkers(fx.bam, bamx, baix, 0)
		return err
	})
	if err != nil {
		return err
	}
	var res *conv.Result
	err = p.call("conv.bamx_convert_s", "conv.ConvertBAMX", func() (err error) {
		res, err = conv.ConvertBAMX(bamx, baix, conv.Options{
			Format: "sam", Cores: nproc, OutDir: p.out, OutPrefix: "full",
		})
		return err
	})
	if err != nil {
		return err
	}
	p.add("conv.bytes_out", float64(res.Stats.BytesOut))
	p.add("conv.partition_s", res.Stats.PartitionTime.Seconds())
	p.checkFiles("ConvertBAMX sam", res.Files, fx.samRef)

	cfg := shard.Config{Workers: nproc}
	runFlagstat := func(metric, span string, open func() shard.Provider) (time.Duration, error) {
		var st flagstat.Stats
		start := time.Now()
		err := p.call(metric, span, func() (err error) {
			if open == nil {
				st, err = flagstat.BAMFile(fx.bam)
				return err
			}
			prov := open()
			defer prov.Close()
			st, err = flagstat.Sharded(prov, cfg)
			return err
		})
		p.check(span, err != nil || st == fx.flagRef, "got %+v, want %+v", st, fx.flagRef)
		return time.Since(start), err
	}
	seq, err := runFlagstat("flagstat.seq_bam_s", "flagstat.BAMFile", nil)
	if err != nil {
		return err
	}
	par, err := runFlagstat("flagstat.sharded_bam_s", "flagstat.Sharded.bam",
		func() shard.Provider { return shard.NewBAMProvider(fx.bam) })
	if err != nil {
		return err
	}
	p.set("flagstat.sharded_bam_speedup", ratio(seq, par))
	_, err = runFlagstat("flagstat.sharded_pamx_s", "flagstat.Sharded.pamx",
		func() shard.Provider { return shard.NewPAMXProvider(fx.pamx) })
	if err != nil {
		return err
	}

	if err := fx.statistics(p, cfg); err != nil {
		return err
	}

	var records int64
	for i, r := range fx.regions {
		start := time.Now()
		err := p.call("", "conv.ConvertBAMX.region", func() (err error) {
			res, err = conv.ConvertBAMX(bamx, baix, conv.Options{
				Format: "sam", Cores: nproc, OutDir: p.out, OutPrefix: "region", Region: &r,
			})
			return err
		})
		p.sample("latency", float64(time.Since(start).Nanoseconds())/1e6)
		if err != nil {
			return err
		}
		records += res.Stats.Records
		p.check("region "+r.String(), res.Stats.Records == int64(fx.regionRef[i]),
			"%d records, index says %d", res.Stats.Records, fx.regionRef[i])
	}
	lat := p.samples["latency"]
	p.set("conv.region_records", float64(records))
	p.set("conv.region_samples", float64(len(lat)))
	p.set("conv.region_p90_ms", quantile(lat, 0.9))
	return nil
}

// statistics runs coverage → NL-means → FDR → peaks, each step checked
// against the reference chain computed sequentially at set-up.
func (fx *analyzeFixture) statistics(p *pass, cfg shard.Config) error {
	nproc := p.b.cfg.nproc
	var h *hist.Histogram
	err := p.call("hist.coverage_s", "hist.FromProvider", func() (err error) {
		prov := shard.NewBAMProvider(fx.bam)
		defer prov.Close()
		h, err = hist.FromProvider(prov, coverageRef, coverageBin, cfg)
		return err
	})
	if err != nil {
		return err
	}
	p.check("hist.FromProvider", reflect.DeepEqual(h.Bins, fx.coverage), "coverage differs from the in-memory reference")

	var den []float64
	err = p.call("nlmeans.denoise_s", "nlmeans.DenoiseParallel", func() (err error) {
		den, err = nlmeans.DenoiseParallel(h.Bins, denoiseParams, nproc)
		return err
	})
	if err != nil {
		return err
	}
	p.check("nlmeans.DenoiseParallel", reflect.DeepEqual(den, fx.denoised), "differs from sequential Denoise")

	var v float64
	err = p.call("fdr.parallel_s", "fdr.ParallelFused", func() error {
		return mpi.Run(nproc, func(c *mpi.Comm) error {
			got, err := fdr.ParallelFused(c, den, fx.sims, fdrThreshold)
			if c.Rank() == 0 {
				v = got
			}
			return err
		})
	})
	if err != nil {
		return err
	}
	p.check("fdr.ParallelFused", v == fx.fdrRef, "%v, sequential %v", v, fx.fdrRef)

	var ps []peaks.Peak
	var pt, est float64
	err = p.call("peaks.call_s", "peaks.CallWithFDR", func() (err error) {
		ps, pt, est, err = peaks.CallWithFDR(den, fx.sims, peakCandidates,
			peaks.Options{MaxGap: peakMaxGap, MinWidth: peakMinWidth})
		return err
	})
	if err != nil {
		return err
	}
	p.check("peaks.CallWithFDR", reflect.DeepEqual(ps, fx.peaksRef) && pt == fx.peakPT && est == fx.peakFDR,
		"%s", fmt.Sprintf("%d peaks at p_t %v (FDR %v), reference %d at %v (%v)",
			len(ps), pt, est, len(fx.peaksRef), fx.peakPT, fx.peakFDR))
	return nil
}
