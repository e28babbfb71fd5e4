package main

// workloads are the benchmark's named input sets. Each one's why is
// repeated in BENCHMARK.json and README.md.
var workloads = map[string]workload{
	"convert": {
		why:   "unsorted SAM larger than the LLC through the SAM and preprocessing-optimized SAM converters and SAM flagstat; no BGZF",
		setup: setupConvert,
	},
	"ingest": {
		why:   "aligner SAM to sorted BAM, BAI, per-rank BAM shards and PAMX; the only workload that writes BGZF in volume",
		setup: setupIngest,
	},
	"analyze": {
		why:   "read path on a sorted indexed BAM: BAM to BAMX to SAM, flagstat three ways, coverage-NLmeans-FDR-peaks, region queries",
		setup: setupAnalyze,
	},
	"serve": {
		why:    "in-process seqconvd under an open loop then nproc closed-loop clients; small jobs, so per-call fixed costs dominate",
		setup:  setupServe,
		passes: 1,
	},
}

// workloadOrder is the order the README and BENCHMARK.json list them.
var workloadOrder = []string{"convert", "ingest", "analyze", "serve"}
