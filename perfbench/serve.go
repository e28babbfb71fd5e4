package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"parseq/internal/conv"
	"parseq/internal/daemon"
	"parseq/internal/flagstat"
	"parseq/internal/obs"
)

// Serve sizing. The open-loop rate is fixed near half the closed-loop
// capacity measured on the reference host (2 CPUs), so a slower daemon
// shows as queueing latency rather than as a lower offered load.
const (
	serveInputs   = 8      // distinct uploaded SAM inputs
	serveReads    = 1_000  // reads per uploaded SAM
	serveBAMReads = 20_000 // reads in the daemon-visible indexed BAM
	openRate      = 25.0   // open-loop arrivals per second
	minOpenJobs   = 100    // so the p90 has ten samples beyond it
	openShare     = 0.55   // share of the pass budget spent in the open loop
	pollInterval  = 5 * time.Millisecond
	jobTimeout    = 60 * time.Second
)

// jobKind is one entry of the job mix.
type jobKind int

const (
	kindFastq jobKind = iota
	kindBAM
	kindFlagstat
)

// mixBlock is the job mix: 3/5 convert→fastq, 1/5 convert→bam, 1/5
// flagstat on the indexed BAM; each block of five is shuffled.
var mixBlock = []jobKind{kindFastq, kindFastq, kindFastq, kindBAM, kindFlagstat}

var kindNames = []string{"fastq", "bam", "flagstat"}

type serveInput struct {
	data  []byte
	fastq digest
	bam   digest
}

type serveFixture struct {
	seed    int64
	inputs  []serveInput
	bamPath string
	bamSize int64
	flagRef []byte
	n       int64
}

func setupServe(b *bench, dir string) (fixture, error) {
	fx := &serveFixture{seed: b.cfg.seed, bamPath: filepath.Join(dir, "shared.bam")}
	if err := mkdir(dir); err != nil {
		return nil, err
	}
	var paths []string
	err := b.timeSetup("simdata.generate_s", func() error {
		for i := 0; i < serveInputs; i++ {
			d := generate(b.cfg.seed*1000+int64(i), b.scaled(serveReads, 50), false)
			path := filepath.Join(dir, fmt.Sprintf("in%d.sam", i))
			if _, err := writeSAM(d, path); err != nil {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fx.inputs = append(fx.inputs, serveInput{data: data})
			paths = append(paths, path)
			fx.n += int64(len(d.Records))
		}
		d := generate(b.cfg.seed, b.scaled(serveBAMReads, 200), true)
		fx.n += int64(len(d.Records))
		var err error
		if fx.bamSize, err = writeBAM(d, fx.bamPath, b.cfg.nproc); err != nil {
			return err
		}
		return writeIndex(fx.bamPath)
	})
	if err != nil {
		return nil, err
	}
	// The daemon's answers must equal the same library calls made in
	// this process.
	err = b.timeSetup("setup.reference_s", func() error {
		ref := filepath.Join(dir, "ref")
		if err := mkdir(ref); err != nil {
			return err
		}
		for i, path := range paths {
			opts := conv.Options{Format: "fastq", OutDir: ref, OutPrefix: "out"}
			res, err := conv.ConvertSAM(path, opts)
			if err != nil {
				return err
			}
			if fx.inputs[i].fastq, err = filesDigest(res.Files); err != nil {
				return err
			}
			opts.Format = "bam"
			if res, err = conv.ConvertSAMToBAM(path, opts); err != nil {
				return err
			}
			if fx.inputs[i].bam, err = filesDigest(res.Files); err != nil {
				return err
			}
		}
		st, err := flagstat.BAMFile(fx.bamPath)
		fx.flagRef = []byte(st.Format())
		return err
	})
	return fx, err
}

func (fx *serveFixture) inputBytes() int64 {
	var n int64
	for _, in := range fx.inputs {
		n += int64(len(in.data))
	}
	return n + fx.bamSize
}

func (fx *serveFixture) records() int64 { return fx.n }

// served is one running daemon behind a loopback HTTP listener.
type served struct {
	d      *daemon.Daemon
	srv    *http.Server
	client *daemon.Client
	tr     *http.Transport
	done   chan error
}

// startDaemon starts seqconvd's core in process: the daemon on a
// loopback listener, with a client whose transport is capped at nproc
// connections.
func startDaemon(reg *obs.Registry, spool string, nproc int) (*served, error) {
	d, err := daemon.New(daemon.Options{Registry: reg, SpoolDir: spool})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	mux := http.NewServeMux()
	d.Install(mux)
	s := &served{d: d, srv: &http.Server{Handler: mux}, done: make(chan error, 1)}
	s.tr = &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	s.client = &daemon.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: s.tr}}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop closes the listener, waits for the server goroutine and stops
// the daemon's runners.
func (s *served) stop() error {
	s.tr.CloseIdleConnections()
	err := s.srv.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.d.Close(); err == nil {
		err = cerr
	}
	return err
}

// jobOutcome is what one job's client saw.
type jobOutcome struct {
	ok      bool
	inBytes int64
}

// pass drives an in-process seqconvd: an open loop at openRate, then a
// closed loop with nproc clients.
func (fx *serveFixture) pass(p *pass) error {
	nproc := p.b.cfg.nproc
	reg := p.reg
	if reg == nil {
		// seqconvd always keeps a registry for its /metrics endpoint.
		reg = obs.New()
		obs.SetDefault(reg)
		defer obs.SetDefault(nil)
	}
	var s *served
	err := p.call("", "daemon.start", func() (err error) {
		s, err = startDaemon(reg, filepath.Join(p.out, "spool"), nproc)
		return err
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(fx.seed))
	kinds := func(n int) []jobKind {
		out := make([]jobKind, 0, n+len(mixBlock))
		for len(out) < n {
			blk := append([]jobKind(nil), mixBlock...)
			rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
			out = append(out, blk...)
		}
		return out[:n]
	}

	// Open loop: job i is due at t0 + i/rate, whatever happened to the
	// jobs before it; latency counts from the due time.
	openJobs := int(openShare * p.budget.Seconds() * openRate)
	if openJobs < minOpenJobs {
		openJobs = minOpenJobs
	}
	plan := kinds(openJobs)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, k := range plan {
		due := t0.Add(time.Duration(float64(i) / openRate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			start := time.Now()
			time.Sleep(wait)
			p.tr.record("loadgen.wait", p.span, start, time.Since(start), 0)
		}
		p.sample("loadgen.lateness", float64(time.Since(due).Nanoseconds())/1e6)
		input := rng.Intn(len(fx.inputs))
		wg.Add(1)
		go func(i int, k jobKind, input int, due time.Time) {
			defer wg.Done()
			fx.job(p, s.client, 1+i%64, k, input, due, true)
		}(i, k, input, due)
	}
	wg.Wait()

	// Closed loop: nproc clients, each submitting its next job when the
	// previous one's result has arrived.
	closed := p.budget - time.Since(t0)
	if floor := time.Duration((1 - openShare) * float64(p.budget)); closed < floor {
		closed = floor
	}
	var (
		mu        sync.Mutex
		completed int
		inBytes   int64
	)
	cstart := time.Now()
	deadline := cstart.Add(closed)
	for c := 0; c < nproc; c++ {
		crng := rand.New(rand.NewSource(fx.seed*7919 + int64(c)))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n == 0 || time.Now().Before(deadline); n++ {
				k := mixBlock[crng.Intn(len(mixBlock))]
				out := fx.job(p, s.client, 100+c, k, crng.Intn(len(fx.inputs)), time.Now(), false)
				if out.ok {
					mu.Lock()
					completed++
					inBytes += out.inBytes
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	cwall := time.Since(cstart).Seconds()
	p.set("daemon.jobs_per_s", float64(completed)/cwall)
	p.set("input_mb_s", float64(inBytes)/1e6/cwall)

	if err := p.call("", "daemon.stop", s.stop); err != nil {
		return err
	}
	fx.summarize(p)
	return nil
}

// summarize reduces the open loop's samples to the per-layer metrics.
func (fx *serveFixture) summarize(p *pass) {
	p.mu.Lock()
	defer p.mu.Unlock()
	lat := p.samples["latency"]
	p.vals["daemon.job_samples"] = float64(len(lat))
	p.vals["daemon.job_p90_ms"] = quantile(lat, 0.9)
	p.vals["daemon.submit_p50_ms"] = median(p.samples["daemon.submit"])
	p.vals["daemon.run_p50_ms"] = median(p.samples["daemon.run"])
	p.vals["daemon.result_p50_ms"] = median(p.samples["daemon.result"])
	p.vals["daemon.queued_p90_ms"] = quantile(p.samples["daemon.queued"], 0.9)
	// The mix's typical latency is each job kind's median weighted by its
	// share of the mix. The plain median of all jobs falls between the
	// fast FASTQ jobs and the slower kinds, so it jumps with small shifts
	// in interference; the per-kind medians do not.
	var typical float64
	for k, name := range kindNames {
		med := median(p.samples["job."+name])
		p.vals["daemon."+name+"_job_p50_ms"] = med
		share := 0
		for _, m := range mixBlock {
			if m == jobKind(k) {
				share++
			}
		}
		typical += med * float64(share) / float64(len(mixBlock))
	}
	p.vals["latency_p50_ms"] = typical
	p.vals["loadgen.lateness_p90_ms"] = quantile(p.samples["loadgen.lateness"], 0.9)
}

// job submits one job, polls it to a terminal state at the fixed
// interval, streams its result and checks it. Open-loop jobs record
// their latency from due to the last result byte.
func (fx *serveFixture) job(p *pass, c *daemon.Client, tid int, k jobKind, input int, due time.Time, open bool) jobOutcome {
	var (
		spec daemon.JobSpec
		body io.Reader
		want []byte
		wdg  digest
		in   int64
	)
	switch k {
	case kindFastq, kindBAM:
		spec = daemon.JobSpec{Op: daemon.OpConvert, Format: kindNames[k]}
		body = bytes.NewReader(fx.inputs[input].data)
		in = int64(len(fx.inputs[input].data))
		wdg = fx.inputs[input].fastq
		if k == kindBAM {
			wdg = fx.inputs[input].bam
		}
	case kindFlagstat:
		spec = daemon.JobSpec{Op: daemon.OpFlagstat, InputPath: fx.bamPath}
		in = fx.bamSize
		want = fx.flagRef
	}
	what := "daemon job " + kindNames[k]
	sample := func(series string, ms float64) {
		if open {
			p.sample(series, ms)
		}
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

	start := time.Now()
	st, err := c.Submit(spec, body)
	p.tr.record("daemon.submit", p.span, start, time.Since(start), tid)
	sample("daemon.submit", ms(time.Since(start)))
	var de *daemon.Error
	if errors.As(err, &de) && de.Code == daemon.CodeOverloaded {
		p.refuse(what, err)
		return jobOutcome{}
	}
	if err != nil {
		p.op(what, err)
		return jobOutcome{}
	}

	start = time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	st, err = c.Wait(ctx, st.ID, pollInterval)
	cancel()
	p.tr.record("daemon.wait", p.span, start, time.Since(start), tid)
	if err == nil && st.State != daemon.StateDone {
		err = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	if err != nil {
		p.op(what, err)
		return jobOutcome{}
	}
	sample("daemon.run", float64(st.RunMS))
	sample("daemon.queued", float64(st.QueuedMS))

	start = time.Now()
	dg := newDigester()
	var buf bytes.Buffer
	rc, err := c.Result(st.ID, "")
	if err == nil {
		var w io.Writer = dg
		if want != nil {
			w = &buf
		}
		_, err = io.Copy(w, rc)
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
	}
	end := time.Now()
	p.tr.record("daemon.result", p.span, start, end.Sub(start), tid)
	p.op(what, err)
	if err != nil {
		return jobOutcome{}
	}
	sample("daemon.result", ms(end.Sub(start)))
	sample("latency", ms(end.Sub(due)))
	sample("job."+kindNames[k], ms(end.Sub(due)))

	ok := dg.digest() == wdg
	if want != nil {
		ok = bytes.Equal(buf.Bytes(), want)
	}
	p.check(what, ok, "job %s result differs from the in-process library call", st.ID)
	return jobOutcome{ok: ok, inBytes: in}
}
