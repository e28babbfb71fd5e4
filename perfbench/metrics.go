package main

import (
	"math"
	"sort"

	"parseq/internal/obs"
)

// metric is one row of the benchmark's metric catalog. BENCHMARK.json
// lists exactly these rows (end-to-end ones with their bound), and
// README.md maps each layer metric to the end-to-end metric and
// workload it should move; the tests keep all three in step.
type metric struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
	layer  bool
}

// layerModules are the repo's modules the benchmark times from outside;
// each gets a <module>.self_s metric in traced runs.
var layerModules = []string{
	"conv", "flagstat", "sorter", "bam", "pamx", "hist", "nlmeans",
	"fdr", "peaks", "daemon", "loadgen",
}

func e2e(name, unit, better string, bound float64) metric {
	return metric{name: name, unit: unit, better: better, bound: bound}
}

func lay(name, unit, better string) metric {
	return metric{name: name, unit: unit, better: better, layer: true}
}

// catalog is every metric the JSON result can carry.
var catalog = append([]metric{
	// Bounds: on the 2-CPU reference host the quartile spread over ten
	// seeds ran 0.05–0.17 for the timings (0.26 once for convert, in a
	// noisy hour) and 0.03–0.13 for memory; slow spells of a minute or
	// two hit every workload alike. Every metric gets the largest bound
	// allowed (README.md, "Reference numbers").
	e2e("setup_s", "s", "lower", 0.25),
	e2e("input_mb_s", "MB/s", "higher", 0.25),
	e2e("latency_p50_ms", "ms", "lower", 0.25),
	e2e("peak_rss_mb", "MB", "lower", 0.25),

	// conv: the three converter instances of the paper.
	lay("conv.sam_convert_s", "s", "lower"),
	lay("conv.sam_seq_s", "s", "lower"),
	lay("conv.sam_speedup", "ratio", "higher"),
	lay("conv.psam_preprocess_s", "s", "lower"),
	lay("conv.psam_speedup", "ratio", "higher"),
	lay("conv.partition_s", "s", "lower"),
	lay("conv.bytes_out", "B", "lower"),
	lay("conv.bamx_convert_s", "s", "lower"),
	lay("conv.bam_preprocess_s", "s", "lower"),
	lay("conv.tobam_s", "s", "lower"),
	lay("conv.region_records", "count", "higher"),
	lay("conv.region_p90_ms", "ms", "lower"),
	lay("conv.region_samples", "count", "higher"),

	// parpipe: the converter's parse/encode worker pipelines.
	lay("parpipe.conv.encode.busy_ns", "ns", "lower"),
	lay("parpipe.conv.encode.idle_ns", "ns", "lower"),
	lay("parpipe.conv.parse.busy_ns", "ns", "lower"),
	lay("parpipe.conv.parse.idle_ns", "ns", "lower"),

	// sorter and bam (index).
	lay("sorter.sort_s", "s", "lower"),
	lay("sorter.runs", "count", "lower"),
	lay("sorter.records", "count", "higher"),
	lay("bam.index_s", "s", "lower"),

	// bgzf: write side, read side, shared pool.
	lay("bgzf.deflate.blocks", "count", "lower"),
	lay("bgzf.deflate.bytes_in", "B", "lower"),
	lay("bgzf.deflate.bytes_out", "B", "lower"),
	lay("bgzf.deflate.latency_p50_us", "us", "lower"),
	lay("parpipe.bgzf.deflate.busy_ns", "ns", "lower"),
	lay("parpipe.bgzf.deflate.idle_ns", "ns", "lower"),
	lay("bgzf.inflate.blocks", "count", "lower"),
	lay("bgzf.inflate.bytes_out", "B", "lower"),
	lay("bgzf.inflate.latency_p50_us", "us", "lower"),
	lay("parpipe.bgzf.inflate.busy_ns", "ns", "lower"),
	lay("parpipe.bgzf.inflate.idle_ns", "ns", "lower"),
	lay("bgzf.prefetch.bytes", "B", "lower"),
	lay("bgzf.shared.workers", "count", "higher"),

	// formats/pamx.
	lay("pamx.from_bam_s", "s", "lower"),
	lay("pamx.bytes_inflated", "B", "lower"),
	lay("pamx.bytes_skipped", "B", "higher"),

	// flagstat, shard.
	lay("flagstat.sam_s", "s", "lower"),
	lay("flagstat.seq_bam_s", "s", "lower"),
	lay("flagstat.sharded_bam_s", "s", "lower"),
	lay("flagstat.sharded_bam_speedup", "ratio", "higher"),
	lay("flagstat.sharded_pamx_s", "s", "lower"),
	lay("shard.count", "count", "higher"),
	lay("shard.steal", "count", "lower"),
	lay("shard.skew", "permille", "lower"),

	// statistics kernels.
	lay("hist.coverage_s", "s", "lower"),
	lay("nlmeans.denoise_s", "s", "lower"),
	lay("fdr.parallel_s", "s", "lower"),
	lay("peaks.call_s", "s", "lower"),
	lay("mpi.wait_ns", "ns", "lower"),

	// daemon and the load generator.
	lay("daemon.submit_p50_ms", "ms", "lower"),
	lay("daemon.run_p50_ms", "ms", "lower"),
	lay("daemon.result_p50_ms", "ms", "lower"),
	lay("daemon.fastq_job_p50_ms", "ms", "lower"),
	lay("daemon.bam_job_p50_ms", "ms", "lower"),
	lay("daemon.flagstat_job_p50_ms", "ms", "lower"),
	lay("daemon.queued_p90_ms", "ms", "lower"),
	lay("daemon.queue_depth_max", "count", "lower"),
	lay("daemon.rejected", "count", "lower"),
	lay("daemon.job_p90_ms", "ms", "lower"),
	lay("daemon.job_samples", "count", "higher"),
	lay("daemon.jobs_per_s", "1/s", "higher"),
	lay("loadgen.lateness_p90_ms", "ms", "lower"),

	// runtime and set-up.
	lay("go.gc_cpu_ns", "ns", "lower"),
	lay("simdata.generate_s", "s", "lower"),
	lay("setup.reference_s", "s", "lower"),

	// the traced run's own budget.
	lay("trace.pass_s", "s", "lower"),
	lay("trace.unattributed_s", "s", "lower"),
	lay("trace.coverage", "ratio", "higher"),
	lay("trace.overhead_s", "s", "lower"),
}, selfMetrics()...)

func selfMetrics() []metric {
	var ms []metric
	for _, m := range layerModules {
		ms = append(ms, lay(m+".self_s", "s", "lower"))
	}
	return ms
}

func isEndToEnd(name string) bool {
	for _, m := range catalog {
		if m.name == name {
			return !m.layer
		}
	}
	return false
}

// unitOf returns a metric's unit; the few report-only values outside
// the catalog carry theirs here.
func unitOf(name string) string {
	for _, m := range catalog {
		if m.name == name {
			return m.unit
		}
	}
	switch name {
	case "failed_frac":
		return "ratio"
	case "latency_samples":
		return "count"
	}
	return ""
}

// obsCounters are the obs counters a traced pass reports under their
// own names.
var obsCounters = []string{
	"parpipe.conv.encode.busy_ns", "parpipe.conv.encode.idle_ns",
	"parpipe.conv.parse.busy_ns", "parpipe.conv.parse.idle_ns",
	"sorter.runs", "sorter.records",
	"bgzf.deflate.blocks", "bgzf.deflate.bytes_in", "bgzf.deflate.bytes_out",
	"parpipe.bgzf.deflate.busy_ns", "parpipe.bgzf.deflate.idle_ns",
	"bgzf.inflate.blocks", "bgzf.inflate.bytes_out",
	"parpipe.bgzf.inflate.busy_ns", "parpipe.bgzf.inflate.idle_ns",
	"bgzf.prefetch.bytes",
	"pamx.bytes_inflated", "pamx.bytes_skipped",
	"shard.count", "shard.steal",
	"mpi.wait_ns", "daemon.rejected",
}

// readCounters copies a traced pass's obs registry into its per-layer
// values. The registry is fresh per pass, so counters are per-pass
// totals and gauge maxima are per-pass peaks.
func readCounters(p *pass) {
	s := p.reg.Snapshot()
	for _, n := range obsCounters {
		p.set(n, float64(s.Counters[n]))
	}
	p.set("bgzf.shared.workers", float64(s.Gauges["bgzf.shared.workers"].Max))
	p.set("daemon.queue_depth_max", float64(s.Gauges["daemon.queue_depth"].Max))
	p.set("shard.skew", float64(s.Gauges["shard.skew"].Value))
	for _, dir := range []string{"deflate", "inflate"} {
		h := s.Histograms["bgzf."+dir+".latency_ns"]
		p.set("bgzf."+dir+".latency_p50_us", histQuantile(h.Buckets, h.Count, 0.5)/1e3)
	}
}

// histQuantile returns the upper bound of the obs histogram bucket
// holding quantile q (bucket bounds are exclusive upper limits; the
// overflow bucket reports the largest finite bound seen).
func histQuantile(buckets []obs.HistogramBucket, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	var cum, last int64
	for _, b := range buckets {
		cum += b.Count
		if b.Le > 0 {
			last = b.Le
		}
		if cum >= target {
			break
		}
	}
	return float64(last)
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// reportedPercentiles are the tail percentiles the report chooses from.
var reportedPercentiles = []float64{0.99, 0.95, 0.9, 0.75, 0.5}

// highestPercentile returns the highest reported percentile that has at
// least ten of n samples beyond it, or 0 when even the median has not.
func highestPercentile(n int) float64 {
	for _, q := range reportedPercentiles {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0
}
