package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"parseq/internal/obs"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	work     string
	nproc    int
	log      io.Writer
}

// setupRepeats is how many times set-up runs per invocation; setup_s is
// the median, so one slow set-up (cold page cache, a noisy neighbour)
// does not move it.
const setupRepeats = 3

// workload is one named input set and the fixed call sequence run over
// it.
type workload struct {
	why string
	// setup generates the inputs under dir and builds the references
	// the output checks compare against.
	setup func(b *bench, dir string) (fixture, error)
	// passes, when > 0, fixes the number of passes per run (per mode
	// in a traced run) and splits the measured seconds between them;
	// 0 repeats passes until the seconds are used up.
	passes int
}

// fixture is a workload's set-up state.
type fixture interface {
	// pass runs the workload's fixed call sequence once.
	pass(p *pass) error
	// inputBytes and records are the workload's input size, for
	// input_mb_s and the provenance stamp.
	inputBytes() int64
	records() int64
}

// bench carries one invocation's configuration and set-up values.
type bench struct {
	cfg      config
	tr       *tracer              // the run's span recorder; nil untraced
	setupVal map[string][]float64 // per-layer set-up timings, one per repeat
	notes    []string

	rssNoReset bool // the kernel refused to reset the peak-RSS watermark
}

// scaled returns n scaled by the -scale flag, at least floor.
func (b *bench) scaled(n, floor int) int {
	v := int(float64(n) * b.cfg.scale)
	if v < floor {
		return floor
	}
	return v
}

// timeSetup times one set-up step into the named per-layer metric.
func (b *bench) timeSetup(metric string, fn func() error) error {
	start := time.Now()
	err := fn()
	b.setupVal[metric] = append(b.setupVal[metric], time.Since(start).Seconds())
	return err
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// pass is one execution of a workload's call sequence: its timed layer
// calls, latency samples, failure tally and (when traced) spans.
type pass struct {
	b      *bench
	tr     *tracer // nil in untraced passes
	reg    *obs.Registry
	span   int    // the pass span's index in tr
	out    string // the pass's output directory, emptied after the pass
	start  time.Time
	budget time.Duration // measured time for workloads with fixed passes
	wall   time.Duration

	mu         sync.Mutex // guards the fields below and writes to the log
	vals       map[string]float64
	samples    map[string][]float64
	attempted  int
	failed     int
	errors     int
	mismatches int
	later      []func()
}

// add accumulates v into a per-pass metric.
func (p *pass) add(metric string, v float64) {
	p.mu.Lock()
	p.vals[metric] += v
	p.mu.Unlock()
}

// set stores a per-pass metric.
func (p *pass) set(metric string, v float64) {
	p.mu.Lock()
	p.vals[metric] = v
	p.mu.Unlock()
}

// sample appends one latency observation (ms) to a named series.
func (p *pass) sample(series string, ms float64) {
	p.mu.Lock()
	p.samples[series] = append(p.samples[series], ms)
	p.mu.Unlock()
}

// call times one operation of the pass: its wall time is added to the
// per-layer metric (when metric is not empty), a span named span is
// recorded in traced passes, and an error counts the operation failed.
func (p *pass) call(metric, span string, fn func() error) error {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if metric != "" {
		p.add(metric, d.Seconds())
	}
	p.tr.record(span, p.span, start, d, 0)
	p.op(span, err)
	return err
}

// op counts one attempted operation, failed when err is not nil.
func (p *pass) op(what string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err != nil {
		p.failed++
		p.errors++
		fmt.Fprintf(p.b.cfg.log, "perfbench: %s: %v\n", what, err)
	}
}

// refuse counts one attempted operation the system turned away.
func (p *pass) refuse(what string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	p.failed++
	fmt.Fprintf(p.b.cfg.log, "perfbench: %s refused: %v\n", what, err)
}

// check records an output check of an operation already counted by
// call: a mismatch marks the operation failed.
func (p *pass) check(what string, ok bool, format string, args ...any) {
	if ok {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed++
	p.mismatches++
	fmt.Fprintf(p.b.cfg.log, "perfbench: check %s failed: %s\n", what, fmt.Sprintf(format, args...))
}

// afterPass defers an output check until the pass wall has been taken,
// so the checks' own reading and hashing stays out of the timings.
func (p *pass) afterPass(fn func()) { p.later = append(p.later, fn) }

// report is everything one invocation measured.
type report struct {
	prov       provenance
	metrics    map[string]float64
	notes      []string
	attempted  int
	failed     int
	errors     int
	mismatches int
}

// runWorkload sets the workload up setupRepeats times, then runs passes
// for the configured seconds and reduces them to the report.
func runWorkload(cfg config) (*report, error) {
	w := workloads[cfg.workload]
	root := filepath.Join(cfg.work, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	obs.SetDefault(nil)

	b := &bench{cfg: cfg, setupVal: make(map[string][]float64)}
	if cfg.trace {
		b.tr = newTracer()
	}
	var (
		fx         fixture
		setupTimes []float64
		prevDir    string
	)
	for i := 0; i < setupRepeats; i++ {
		fx = nil
		runtime.GC()
		dir := filepath.Join(root, fmt.Sprintf("setup%d", i))
		start := time.Now()
		var err error
		fx, err = w.setup(b, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if prevDir != "" {
			if err := os.RemoveAll(prevDir); err != nil {
				return nil, err
			}
		}
		prevDir = dir
	}

	rep := &report{metrics: make(map[string]float64)}
	rep.prov = stampProvenance(cfg, fx)
	rep.metrics["setup_s"] = median(setupTimes)
	for k, v := range b.setupVal {
		rep.metrics[k] = median(v)
	}

	// The set-up's garbage goes back to the OS before the first pass.
	runtime.GC()
	debug.FreeOSMemory()

	passDir := filepath.Join(root, "pass")
	var untraced, traced []*pass
	start := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	// A workload with a fixed pass count splits the measured time between
	// its passes, those of both modes in a traced run.
	fixed := w.passes
	if cfg.trace {
		fixed *= 2
	}
	var perPass time.Duration
	if fixed > 0 {
		perPass = budget / time.Duration(fixed)
	}
	for n := 0; ; n++ {
		tracedPass := cfg.trace && n%2 == 1
		if fixed > 0 {
			if n >= fixed {
				break
			}
		} else if n > 0 && time.Since(start) >= budget && (!cfg.trace || len(traced) > 0) {
			break
		}
		p, err := runPass(b, fx, passDir, tracedPass, perPass)
		if err != nil {
			return nil, err
		}
		if tracedPass {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}

	all := append(append([]*pass(nil), untraced...), traced...)
	for _, p := range all {
		rep.attempted += p.attempted
		rep.failed += p.failed
		rep.errors += p.errors
		rep.mismatches += p.mismatches
	}
	endToEnd(rep, fx, untraced)
	if cfg.trace {
		perLayer(rep, traced, untraced)
	} else {
		perLayer(rep, untraced, nil)
	}
	if rep.attempted > 0 {
		rep.metrics["failed_frac"] = float64(rep.failed) / float64(rep.attempted)
	}
	if b.tr != nil {
		path := filepath.Join(filepath.Dir(cfg.work), "traces",
			fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := b.tr.writeChrome(path); err != nil {
			return nil, err
		}
		b.note("chrome trace: %s", path)
	}
	rep.notes = append(rep.notes, b.notes...)
	return rep, nil
}

// runPass runs one pass in a fresh output directory and then its
// deferred output checks; budget is the pass's share of the measured
// time for workloads with a fixed pass count.
func runPass(b *bench, fx fixture, dir string, traced bool, budget time.Duration) (*pass, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &pass{
		b: b, span: -1, out: dir, budget: budget,
		vals:    make(map[string]float64),
		samples: make(map[string][]float64),
	}
	if traced {
		p.tr = b.tr
		p.reg = obs.New()
		p.reg.EnableTracing(0)
		obs.SampleRuntimeGauges(p.reg)
		p.set("go.gc_cpu_ns", -float64(p.reg.Gauge("go.gc_cpu_ns").Value()))
		obs.SetDefault(p.reg)
	}
	// Each pass starts from a collected heap and restarts the peak-RSS
	// watermark, so the pass's peak is its own footprint on top of the
	// resident fixture and what earlier passes left mapped. Memory is not
	// handed back to the OS between passes: re-faulting it every pass
	// made the timings noisier.
	runtime.GC()
	if !resetPeakRSS() && !b.rssNoReset {
		b.rssNoReset = true
		b.note("peak_rss_mb is the process's lifetime peak: the peak-RSS watermark could not be reset")
	}
	p.start = time.Now()
	p.span = p.tr.open(fmt.Sprintf("%s-%d", b.cfg.workload, b.cfg.seed), p.start)
	err := fx.pass(p)
	p.wall = time.Since(p.start)
	p.tr.close(p.span, p.wall)
	peak, rerr := peakRSS()
	if err == nil {
		err = rerr
	}
	p.set("peak_rss_mb", float64(peak)/1e6)
	if traced {
		obs.SetDefault(nil)
		obs.SampleRuntimeGauges(p.reg)
		p.add("go.gc_cpu_ns", float64(p.reg.Gauge("go.gc_cpu_ns").Value()))
		readCounters(p)
		p.tr.budget(p)
	}
	if err != nil {
		return nil, err
	}
	for _, fn := range p.later {
		fn()
	}
	p.later = nil
	return p, os.RemoveAll(dir)
}

// endToEnd reduces the untraced passes to the end-to-end metrics.
func endToEnd(rep *report, fx fixture, passes []*pass) {
	var mbs, walls, rss, mix []float64
	var lat []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds()*1000)
		rss = append(rss, p.vals["peak_rss_mb"])
		if v, ok := p.vals["latency_p50_ms"]; ok {
			mix = append(mix, v)
		}
		if v, ok := p.vals["input_mb_s"]; ok {
			mbs = append(mbs, v)
		} else if p.wall > 0 {
			mbs = append(mbs, float64(fx.inputBytes())/1e6/p.wall.Seconds())
		}
		lat = append(lat, p.samples["latency"]...)
	}
	rep.metrics["input_mb_s"] = median(mbs)
	rep.metrics["peak_rss_mb"] = median(rss)
	rep.notes = append(rep.notes, fmt.Sprintf("untraced pass walls (ms): %.1f", walls))
	if len(lat) > 0 {
		// The guide's percentile rule: the median, and the highest
		// percentile with at least ten samples beyond it.
		q := highestPercentile(len(lat))
		rep.metrics["latency_samples"] = float64(len(lat))
		rep.notes = append(rep.notes, fmt.Sprintf("request latency: p50 %.3f ms, p%g %.3f ms over %d samples",
			median(lat), q*100, quantile(lat, q), len(lat)))
	}
	switch {
	case len(mix) > 0: // the workload defines its own typical latency
		rep.metrics["latency_p50_ms"] = median(mix)
	case len(lat) > 0:
		rep.metrics["latency_p50_ms"] = median(lat)
	default: // batch workloads: the pass is the request
		rep.metrics["latency_p50_ms"] = median(walls)
	}
}

// perLayer reduces per-pass layer values to their medians across the
// given passes; with an untraced set it also reports the tracing
// overhead (traced minus untraced pass wall).
func perLayer(rep *report, passes, untraced []*pass) {
	keys := map[string]bool{}
	for _, p := range passes {
		for k := range p.vals {
			keys[k] = true
		}
	}
	for k := range keys {
		if isEndToEnd(k) {
			continue
		}
		var vs []float64
		for _, p := range passes {
			vs = append(vs, p.vals[k])
		}
		rep.metrics[k] = median(vs)
	}
	if len(untraced) > 0 && len(passes) > 0 {
		var tw, uw []float64
		for _, p := range passes {
			tw = append(tw, p.wall.Seconds())
		}
		for _, p := range untraced {
			uw = append(uw, p.wall.Seconds())
		}
		rep.metrics["trace.overhead_s"] = median(tw) - median(uw)
	}
}

// median returns the median of xs (0 for none), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
