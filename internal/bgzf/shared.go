// Process-wide shared deflate pool. A conversion run opens many
// short-lived BGZF writers — one BAM shard per rank, one spill run per
// sorted chunk — and giving each its own worker pool multiplies
// goroutines while leaving most of them idle. SharedPool keeps one warm
// pool the writers attach to (parpipe.NewOnPool), and sizes it from
// measured throughput: an EWMA of the bytes/s one worker achieves over
// recent blocks against the windowed demand across all attached
// streams, rather than CPU count alone.

package bgzf

import (
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"parseq/internal/obs"
	"parseq/internal/parpipe"
)

var (
	sharedOnce  sync.Once
	sharedPool  *parpipe.Pool
	sharedSizer *poolSizer
)

// SharedPool returns the process-wide deflate worker pool, created on
// first use with AutoWorkers() workers and a ceiling of GOMAXPROCS.
// The pool lives for the process; writers attach and detach freely.
func SharedPool() *parpipe.Pool {
	sharedOnce.Do(func() {
		max := runtime.GOMAXPROCS(0)
		if max < 1 {
			max = 1
		}
		sharedPool = parpipe.NewPool(AutoWorkers(), max, 4*max)
		sharedSizer = newPoolSizer(sharedPool)
	})
	return sharedPool
}

// NewSharedParallelWriterLevel returns a parallel BGZF writer whose
// deflate jobs run on SharedPool instead of a private worker pool, with
// an explicit flate level and per-block payload size as in
// NewWriterLevel. Output bytes, virtual offsets and error behaviour are
// identical to NewParallelWriterLevel's; only the execution substrate
// differs, so the many short-lived writers a converter rank opens stop
// paying a pool start/stop per stream. Each compressed block also feeds
// the shared pool's throughput sizer.
func NewSharedParallelWriterLevel(w io.Writer, level, payload int) *ParallelWriter {
	pool := SharedPool()
	pw := newParallelWriter(w, level, payload)
	pw.sizer = sharedSizer
	pw.pipe = parpipe.NewOnPool(pool, pipeDepth(pool.Max()), pw.compress, obs.Default(), "bgzf.deflate")
	go pw.drain()
	return pw
}

// ObserveSharedDeflate feeds one deflate job that ran on SharedPool but
// outside the BGZF writers — the BAMZ block compressor — into the
// pool's throughput sizer: n payload bytes compressed in d of worker
// wall time. Every deflate consumer of the shared pool contributes to
// the same demand window, so the pool sizes for the true aggregate
// load (and the bgzf.shared_pool.throughput gauge the admission-control
// plan reads stays honest).
func ObserveSharedDeflate(n int, d time.Duration) {
	SharedPool() // force sharedSizer initialisation
	sharedSizer.observe(n, d)
}

const (
	sizerAlpha  = 0.2 // EWMA smoothing for per-worker throughput
	resizeEvery = 32  // blocks between resize decisions
)

// poolSizer adapts the shared pool's worker count to measured load.
// Every compressed block contributes its payload size and wall time,
// maintaining an EWMA of the bytes/s a single worker achieves and a
// sliding window of demand bytes/s across all attached writers. Every
// resizeEvery blocks the pool is resized to ceil(demand/perWorker),
// bumped while the queue is outrunning the workers, and clamped by the
// pool to [1, GOMAXPROCS].
type poolSizer struct {
	pool *parpipe.Pool

	mu        sync.Mutex
	perWorker float64 // EWMA of one worker's bytes/s
	winBytes  int64   // payload bytes compressed since winStart
	winStart  time.Time
	blocks    int
}

func newPoolSizer(p *parpipe.Pool) *poolSizer {
	return &poolSizer{pool: p, winStart: time.Now()}
}

// observe accounts one compressed block of n payload bytes that took d
// of worker wall time, and resizes the pool when a window completes.
func (s *poolSizer) observe(n int, d time.Duration) {
	if n <= 0 {
		return
	}
	secs := d.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	bps := float64(n) / secs
	s.mu.Lock()
	if s.perWorker == 0 {
		s.perWorker = bps
	} else {
		s.perWorker += sizerAlpha * (bps - s.perWorker)
	}
	s.winBytes += int64(n)
	s.blocks++
	if s.blocks < resizeEvery {
		s.mu.Unlock()
		return
	}
	demand := 0.0
	if elapsed := time.Since(s.winStart).Seconds(); elapsed > 0 {
		demand = float64(s.winBytes) / elapsed
	}
	per := s.perWorker
	s.blocks = 0
	s.winBytes = 0
	s.winStart = time.Now()
	s.mu.Unlock()

	need := 1
	if per > 0 && demand > 0 {
		need = int(math.Ceil(demand / per))
	}
	if s.pool.Backlog() > s.pool.Workers() && need <= s.pool.Workers() {
		// The queue is outrunning the workers regardless of what the
		// window average says; grow by at least one.
		need = s.pool.Workers() + 1
	}
	got := s.pool.SetWorkers(need)
	if reg := obs.Default(); reg != nil {
		reg.Gauge("bgzf.shared.workers").Set(int64(got))
		// The measured per-worker EWMA bytes/s behind the sizing
		// decision — the observability half of admission control: an
		// operator (or a future scheduler) can see the throughput the
		// pool believes one worker delivers.
		reg.Gauge("bgzf.shared_pool.throughput").Set(int64(per))
	}
}
