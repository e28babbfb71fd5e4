package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer keeps the benchmark's own spans in memory: one span per pass,
// with the layer calls of that pass as its children. Spans of one pass
// share the pass's run ID. All methods are no-ops on a nil tracer, so
// untraced passes pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []spanRec
}

type spanRec struct {
	name   string
	run    string
	parent int // index of the parent span, -1 for a pass
	start  time.Duration
	dur    time.Duration
	tid    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a pass span and returns its index; the pass's run ID is
// run plus the pass ordinal.
func (t *tracer) open(run string, start time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.parent < 0 {
			n++
		}
	}
	t.spans = append(t.spans, spanRec{
		name: "pass", run: fmt.Sprintf("%s-p%d", run, n), parent: -1,
		start: start.Sub(t.epoch),
	})
	return len(t.spans) - 1
}

// close sets a pass span's duration.
func (t *tracer) close(i int, d time.Duration) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].dur = d
	t.mu.Unlock()
}

// record adds one completed layer span under the pass span parent.
func (t *tracer) record(name string, parent int, start time.Time, d time.Duration, tid int) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{
		name: name, run: t.spans[parent].run, parent: parent,
		start: start.Sub(t.epoch), dur: d, tid: tid,
	})
	t.mu.Unlock()
}

// module is the layer a span belongs to: its name up to the first dot.
func module(span string) string {
	if i := strings.IndexByte(span, '.'); i > 0 {
		return span[:i]
	}
	return span
}

// budget computes the pass's layer budget from its spans: each layer's
// self time (the summed duration of its spans; layer spans have no
// children of their own), the part of the pass wall no layer span
// covers, and the covered share.
func (t *tracer) budget(p *pass) {
	if t == nil || p.span < 0 {
		return
	}
	t.mu.Lock()
	root := t.spans[p.span]
	type iv struct{ a, b time.Duration }
	var ivs []iv
	self := map[string]float64{}
	for _, s := range t.spans {
		if s.parent != p.span {
			continue
		}
		self[module(s.name)] += s.dur.Seconds()
		ivs = append(ivs, iv{s.start, s.start + s.dur})
	}
	t.mu.Unlock()

	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered time.Duration
	end := root.start
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.b > v.a {
			covered += v.b - v.a
			end = v.b
		}
	}
	for _, m := range layerModules {
		p.set(m+".self_s", self[m])
	}
	wall := root.dur
	p.set("trace.pass_s", wall.Seconds())
	p.set("trace.unattributed_s", (wall - covered).Seconds())
	if wall > 0 {
		p.set("trace.coverage", float64(covered)/float64(wall))
	}
}

// writeChrome writes every span as a Chrome trace_event file.
func (t *tracer) writeChrome(path string) error {
	if t == nil {
		return nil
	}
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	t.mu.Lock()
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		parent := ""
		if s.parent >= 0 {
			parent = t.spans[s.parent].name
		}
		evs = append(evs, event{
			Name: s.name, Ph: "X",
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3,
			PID: 1, TID: s.tid,
			Args: map[string]string{"run": s.run, "parent": parent},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
