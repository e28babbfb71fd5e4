// Command perfbench is parseq's end-to-end benchmark. It runs one named
// workload through the library's public entry points, checks every
// output against a reference built at set-up, and prints each metric by
// name with its unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
// measured with tracing off; with -trace 1 they are the per-layer
// metrics, measured in traced passes (see README.md).
//
// Usage:
//
//	perfbench -workload convert|ingest|analyze|serve -seed N -seconds S -trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the command line, runs one workload and prints its report.
// It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadOrder, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", runSeconds, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced passes")
	fs.Float64Var(&cfg.scale, "scale", 1, "input size multiplier (below 1 for smoke tests)")
	fs.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "work"), "scratch directory for inputs and outputs")
	describe := fs.Bool("describe", false, "print the BENCHMARK.json this benchmark implements and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *describe {
		return writeDescription(stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	cfg.trace = *trace == 1
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n",
			cfg.workload, strings.Join(workloadOrder, ", "))
		return 2
	}
	if cfg.seconds < 0 || cfg.scale <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be ≥ 0 and -scale > 0")
		return 2
	}
	cfg.nproc = runtime.GOMAXPROCS(0)
	cfg.log = stderr

	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := writeReport(stdout, cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing report: %v\n", err)
		return 1
	}
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeReport prints the provenance stamp, every measured metric by
// name with its unit, and then the JSON result line restricted to the
// metrics BENCHMARK.json lists for the run's mode.
func writeReport(w io.Writer, cfg config, rep *report) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# perfbench workload=%s seed=%d seconds=%g trace=%v scale=%g\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.scale)
	for _, kv := range rep.prov.lines() {
		fmt.Fprintf(&b, "# %s\n", kv)
	}
	for _, note := range rep.notes {
		fmt.Fprintf(&b, "# %s\n", note)
	}
	// Every metric of the run's mode is printed, a layer the workload
	// does not exercise as 0; values outside the mode follow as context.
	for _, m := range catalog {
		if _, ok := rep.metrics[m.name]; !ok && m.layer == cfg.trace {
			rep.metrics[m.name] = 0
		}
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-34s %14.6g %s\n", n, rep.metrics[n], unitOf(n))
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}

	res := result{
		Correct:   rep.mismatches == 0 && rep.errors == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue),
	}
	for _, m := range catalog {
		if m.layer != cfg.trace {
			continue
		}
		res.Metrics[m.name] = metricValue{Value: rep.metrics[m.name], Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// benchmarkFile is BENCHMARK.json's schema.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []endToEndEntry `json:"end_to_end"`
	PerLayer   []perLayerEntry `json:"per_layer"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndEntry struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the measured time per run that BENCHMARK.json asks for.
const runSeconds = 15

// description is the BENCHMARK.json this code implements.
func description() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, n := range workloadOrder {
		f.Workloads = append(f.Workloads, workloadEntry{Name: n, Why: workloads[n].why})
	}
	for _, m := range catalog {
		if m.layer {
			f.PerLayer = append(f.PerLayer, perLayerEntry{m.name, m.unit, m.better})
		} else {
			f.EndToEnd = append(f.EndToEnd, endToEndEntry{m.name, m.unit, m.better, m.bound})
		}
	}
	return f
}

func writeDescription(stdout, stderr io.Writer) int {
	data, err := json.MarshalIndent(description(), "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}
