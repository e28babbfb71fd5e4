package experiments

import (
	"os"
	"path/filepath"

	"parseq/internal/cluster"
	"parseq/internal/simdata"
)

// Scale sets the workload sizes the experiments run at. The paper's
// datasets (37.5-117 GB alignments, 16M-bin histograms) are scaled to
// laptop size; the cluster model extrapolates the parallel behaviour, so
// speedup shapes do not depend on the absolute size (compute and I/O
// shrink together).
type Scale struct {
	Reads   int    // alignment records per generated dataset
	Bins    int    // histogram bins for the statistical experiments
	Sims    int    // FDR simulation datasets (paper: 80)
	TmpDir  string // scratch directory; "" uses a fresh temp dir
	KeepTmp bool   // leave scratch files behind for inspection
	// CodecWorkers is the number of BGZF/deflate codec goroutines the
	// BAM preprocessing and BAMZ compression steps use; 0 selects the
	// adaptive default (bgzf.AutoWorkers), 1 the sequential codec. The
	// *measured* sequential baselines (Table I BAM→SAM, the BAMZ
	// ablation) pin their own codec to 1 regardless, preserving the
	// paper's configuration.
	CodecWorkers int
	// ParseWorkers is the per-rank parse/encode goroutine count the
	// measured SAM-text conversions run with (conv.Options.ParseWorkers);
	// 0 selects the adaptive default, 1 one worker drained inline. Table I
	// pins its own runs to 1 regardless: its measured times anchor the
	// paper's *sequential* converter, so no parallel parse stage may leak
	// into the baseline.
	ParseWorkers int
	Machine      cluster.Machine
	coresFig     []int // core counts for the figure sweeps
}

// DefaultScale is sized so the full suite finishes in a couple of
// minutes on one core.
func DefaultScale() Scale {
	return Scale{
		Reads:   20000,
		Bins:    40000,
		Sims:    80,
		Machine: cluster.Paper(),
	}
}

// QuickScale is sized for unit tests and smoke runs.
func QuickScale() Scale {
	return Scale{
		Reads:   1500,
		Bins:    3000,
		Sims:    10,
		Machine: cluster.Paper(),
	}
}

func (s *Scale) normalize() error {
	if s.Reads <= 0 {
		s.Reads = DefaultScale().Reads
	}
	if s.Bins <= 0 {
		s.Bins = DefaultScale().Bins
	}
	if s.Sims <= 0 {
		s.Sims = DefaultScale().Sims
	}
	if s.Machine.CoresPerNode == 0 {
		s.Machine = cluster.Paper()
	}
	if len(s.coresFig) == 0 {
		s.coresFig = []int{1, 2, 4, 8, 16, 32, 64, 128}
	}
	if s.TmpDir == "" {
		dir, err := os.MkdirTemp("", "parseq-exp-")
		if err != nil {
			return err
		}
		s.TmpDir = dir
	}
	return os.MkdirAll(s.TmpDir, 0o755)
}

// cleanup removes the scratch directory unless KeepTmp is set.
func (s *Scale) cleanup() {
	if !s.KeepTmp && s.TmpDir != "" {
		os.RemoveAll(s.TmpDir)
	}
}

// datasetPaths materialises the generated dataset as SAM and BAM files
// in the scratch dir (idempotent per Scale).
func (s *Scale) datasetPaths(chromsOnly int) (samPath, bamPath string, err error) {
	cfg := simdata.DefaultConfig(s.Reads)
	if chromsOnly > 0 {
		cfg.Chromosomes = cfg.Chromosomes[:chromsOnly]
	}
	d := simdata.Generate(cfg)
	samPath = filepath.Join(s.TmpDir, "dataset.sam")
	bamPath = filepath.Join(s.TmpDir, "dataset.bam")
	sf, err := os.Create(samPath)
	if err != nil {
		return "", "", err
	}
	if err := d.WriteSAM(sf); err != nil {
		sf.Close()
		return "", "", err
	}
	if err := sf.Close(); err != nil {
		return "", "", err
	}
	bf, err := os.Create(bamPath)
	if err != nil {
		return "", "", err
	}
	if err := d.WriteBAM(bf); err != nil {
		bf.Close()
		return "", "", err
	}
	if err := bf.Close(); err != nil {
		return "", "", err
	}
	return samPath, bamPath, nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
