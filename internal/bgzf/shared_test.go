package bgzf

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"parseq/internal/obs"
)

func compressShared(t testing.TB, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewSharedParallelWriterLevel(&buf, -1, MaxPayload)
	if _, err := w.Write(data); err != nil {
		t.Fatalf("shared Write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("shared Close: %v", err)
	}
	return buf.Bytes()
}

func TestSharedWriterBitIdenticalToSequential(t *testing.T) {
	data := testData(6*MaxPayload+999, 11)
	seq := compress(t, data, MaxPayload)
	got := compressShared(t, data)
	if !bytes.Equal(seq, got) {
		t.Errorf("shared-pool output differs from sequential (%d vs %d bytes)", len(got), len(seq))
	}
}

// Short-lived writers attaching to the shared pool one after another —
// the converter's per-rank shard pattern — must each produce the
// sequential stream.
func TestSharedWriterSequentialReuse(t *testing.T) {
	for i := 0; i < 5; i++ {
		data := testData(2*MaxPayload+i*1000, int64(i))
		if !bytes.Equal(compress(t, data, MaxPayload), compressShared(t, data)) {
			t.Fatalf("iteration %d: shared output differs", i)
		}
	}
}

func TestSharedWriterConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			data := testData(3*MaxPayload+int(seed)*317, seed)
			if !bytes.Equal(compress(t, data, MaxPayload), compressShared(t, data)) {
				t.Errorf("seed %d: shared output differs", seed)
			}
		}(int64(i))
	}
	wg.Wait()
}

func TestSharedPoolSingleton(t *testing.T) {
	if SharedPool() != SharedPool() {
		t.Error("SharedPool returned distinct pools")
	}
	if SharedPool().Max() < 1 {
		t.Errorf("shared pool max = %d", SharedPool().Max())
	}
}

// The sizer must export its per-worker EWMA bytes/s so operators can
// see the throughput behind the pool's sizing decisions.
func TestSharedPoolThroughputGauge(t *testing.T) {
	reg := obs.New()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	s := newPoolSizer(SharedPool())
	// One full window at a known rate: 64 KiB per block in 1ms each.
	for i := 0; i < resizeEvery; i++ {
		s.observe(64<<10, time.Millisecond)
	}
	got := reg.Gauge("bgzf.shared_pool.throughput").Value()
	if got <= 0 {
		t.Fatalf("bgzf.shared_pool.throughput = %d, want > 0", got)
	}
	// 64 KiB / 1 ms = ~64 MiB/s; the EWMA of a constant is the constant.
	want := int64(64 << 10 * 1000)
	if got < want/2 || got > want*2 {
		t.Errorf("throughput gauge = %d, want about %d", got, want)
	}
	if reg.Gauge("bgzf.shared.workers").Value() < 1 {
		t.Errorf("bgzf.shared.workers gauge = %d", reg.Gauge("bgzf.shared.workers").Value())
	}
}
