package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"parseq/internal/bam"
	"parseq/internal/conv"
	"parseq/internal/flagstat"
	"parseq/internal/formats/pamx"
	"parseq/internal/shard"
	"parseq/internal/simdata"
	"parseq/internal/sorter"
)

// ingestReads sizes the ingest input. BGZF deflate dominates this
// workload (a pass takes about 75 µs of wall time per record across
// sort, shard write and PAMX), so it is a tenth of convert's.
const ingestReads = 40_000

// ingestRuns is the number of spill runs the sort is sized to: enough
// that the external merge does real work.
const ingestRuns = 4

// indexProbes is the number of regions the written index is checked on.
const indexProbes = 8

// ingestFixture is an unsorted SAM plus the references for the sorted
// BAM, its index, the per-rank BAM shards and the PAMX copy.
type ingestFixture struct {
	sam      string
	size     int64
	n        int64
	sorted   digest
	shards   digest
	flagRef  flagstat.Stats
	probes   []regionProbe
	chunkRec int
}

// regionProbe is one index query and its expected answer.
type regionProbe struct {
	rname    string
	beg, end int // 0-based half-open
	want     int
}

func setupIngest(b *bench, dir string) (fixture, error) {
	fx := &ingestFixture{sam: filepath.Join(dir, "in.sam")}
	if err := mkdir(dir); err != nil {
		return nil, err
	}
	err := b.timeSetup("simdata.generate_s", func() error {
		d := generate(b.cfg.seed, b.scaled(ingestReads, 200), false)
		fx.n = int64(len(d.Records))
		fx.chunkRec = (len(d.Records) + ingestRuns - 1) / ingestRuns
		var err error
		if fx.size, err = writeSAM(d, fx.sam); err != nil {
			return err
		}
		return b.timeSetup("setup.reference_s", func() error {
			if fx.sorted, err = bodyDigest(d, recordOrder(d)); err != nil {
				return err
			}
			if fx.shards, err = bodyDigest(d, nil); err != nil {
				return err
			}
			fx.flagRef = flagstat.Of(d.Records)
			fx.probes = regionProbes(d, rand.New(rand.NewSource(b.cfg.seed)), indexProbes)
			return nil
		})
	})
	return fx, err
}

// regionProbes draws n regions of 0.5–5% of a chromosome and counts the
// records overlapping each straight from the dataset.
func regionProbes(d *simdata.Dataset, rng *rand.Rand, n int) []regionProbe {
	refs := d.Header.Refs
	out := make([]regionProbe, n)
	for i := range out {
		ref := refs[rng.Intn(len(refs))]
		width := ref.Length/200 + rng.Intn(ref.Length/20+1)
		beg := rng.Intn(ref.Length - width + 1)
		out[i] = regionProbe{rname: ref.Name, beg: beg, end: beg + width}
		out[i].want = overlapCount(d, ref.Name, beg, beg+width)
	}
	return out
}

func (fx *ingestFixture) inputBytes() int64 { return fx.size }
func (fx *ingestFixture) records() int64    { return fx.n }

// pass takes aligner output to analysis-ready files: coordinate sort to
// BAM, its BAI index, per-rank BAM shards as `seqconvert -format bam`
// writes them, and a columnar PAMX copy of the sorted BAM.
func (fx *ingestFixture) pass(p *pass) error {
	nproc := p.b.cfg.nproc
	sorted := filepath.Join(p.out, "sorted.bam")
	err := p.call("sorter.sort_s", "sorter.SortSAMToBAM", func() error {
		_, err := sorter.SortSAMToBAM(fx.sam, sorted, sorter.Options{
			Cores: nproc, ChunkRecords: fx.chunkRec, TmpDir: p.out,
		})
		return err
	})
	if err != nil {
		return err
	}
	err = p.call("bam.index_s", "bam.BuildFileIndex", func() error { return writeIndex(sorted) })
	if err != nil {
		return err
	}
	var res *conv.Result
	err = p.call("conv.tobam_s", "conv.ConvertSAMToBAM", func() (err error) {
		res, err = conv.ConvertSAMToBAM(fx.sam, conv.Options{
			Format: "bam", Cores: nproc, OutDir: p.out, OutPrefix: "shard",
		})
		return err
	})
	if err != nil {
		return err
	}
	pamxPath := filepath.Join(p.out, "sorted.pamx")
	var n int64
	err = p.call("pamx.from_bam_s", "pamx.FromBAM", func() (err error) {
		n, err = pamx.FromBAM(sorted, pamxPath, pamx.Options{})
		return err
	})
	if err != nil {
		return err
	}

	shards := append([]string(nil), res.Files...)
	p.afterPass(func() {
		got, err := bamBodiesDigest([]string{sorted})
		p.check("SortSAMToBAM", err == nil && got == fx.sorted, "records %v (%v), reference %v", got, err, fx.sorted)
		got, err = bamBodiesDigest(shards)
		p.check("ConvertSAMToBAM", err == nil && got == fx.shards, "records %v (%v), reference %v", got, err, fx.shards)
		err = fx.checkIndex(sorted)
		p.check("BuildFileIndex", err == nil, "%v", err)
		p.check("pamx.FromBAM records", n == fx.n, "wrote %d records, want %d", n, fx.n)
		prov := shard.NewPAMXProvider(pamxPath)
		st, err := flagstat.Sharded(prov, shard.Config{})
		prov.Close()
		p.check("pamx.FromBAM flagstat", err == nil && st == fx.flagRef, "got %+v (%v), want %+v", st, err, fx.flagRef)
	})
	return nil
}

// checkIndex answers every probe through the written .bai.
func (fx *ingestFixture) checkIndex(bamPath string) error {
	inf, err := os.Open(bamPath + ".bai")
	if err != nil {
		return err
	}
	idx, err := bam.ReadIndex(inf)
	inf.Close()
	if err != nil {
		return err
	}
	f, err := os.Open(bamPath)
	if err != nil {
		return err
	}
	defer f.Close()
	br, err := bam.NewReader(f)
	if err != nil {
		return err
	}
	defer br.Close()
	for _, pr := range fx.probes {
		got, err := bam.CountRegion(br, idx, pr.rname, pr.beg, pr.end)
		if err != nil {
			return err
		}
		if got != pr.want {
			return fmt.Errorf("%s:%d-%d: %d records, want %d", pr.rname, pr.beg, pr.end, got, pr.want)
		}
	}
	return nil
}
