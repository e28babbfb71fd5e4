package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestHighestPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75},
		{100, 0.9}, {199, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99},
	}
	for _, c := range cases {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		// The rule itself: at least ten samples lie beyond the reported
		// percentile, and none of the higher candidates qualifies.
		if q := highestPercentile(c.n); q > 0 && float64(c.n)*(1-q) < 10-1e-9 {
			t.Errorf("n=%d: p%v has fewer than ten samples beyond it", c.n, q*100)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("quantile reordered its input")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	var e2eCount, layerCount int
	var setupBound, maxBound float64
	for _, m := range catalog {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q does not match %s", m.name, nameRE)
		}
		if seen[m.name] {
			t.Errorf("metric %q listed twice", m.name)
		}
		seen[m.name] = true
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %q: unit %q does not match %s", m.name, m.unit, unitRE)
		}
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("metric %q: better = %q", m.name, m.better)
		}
		if m.layer {
			layerCount++
			continue
		}
		e2eCount++
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		if m.bound > maxBound {
			maxBound = m.bound
		}
		if m.name == "setup_s" {
			setupBound = m.bound
			if m.unit != "s" || m.better != "lower" {
				t.Errorf("setup_s must be in s, lower better; got %s, %s", m.unit, m.better)
			}
		}
	}
	if e2eCount < 1 || e2eCount > 16 || layerCount < 1 || layerCount > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", e2eCount, layerCount)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must exist and be the largest (%v)", setupBound, maxBound)
	}
	for _, w := range workloadOrder {
		if !nameRE.MatchString(w) {
			t.Errorf("workload name %q does not match %s", w, nameRE)
		}
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json identical to
// what this code implements (regenerate with `perfbench -describe`).
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := description(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalog; regenerate it with -describe")
	}
	for _, w := range got.Workloads {
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
}

// TestREADMEMapsEveryMetric keeps the written rationale complete: every
// workload and every metric appears in README.md.
func TestREADMEMapsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	for _, w := range workloadOrder {
		if !strings.Contains(readme, "`"+w+"`") {
			t.Errorf("README.md does not describe workload %s", w)
		}
	}
	for _, m := range catalog {
		if !strings.Contains(readme, "`"+m.name+"`") {
			t.Errorf("README.md does not map metric %s", m.name)
		}
	}
}

// TestTinyScaleEmitsEveryMetric runs every workload at a tiny scale in
// both modes and checks the result line: correct, nothing failed, and
// exactly the metrics of the mode, each with its catalog unit.
// End-to-end metrics must never read 0.
func TestTinyScaleEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	work := t.TempDir()
	for _, w := range workloadOrder {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w, "-seed", "7", "-seconds", "0", "-trace", trace,
				"-scale", "0.01", "-work", work + "/work"}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", w, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", w, trace, err)
			}
			// Under the race detector the daemon runs far below the fixed
			// open-loop rate, so admission control sheds jobs with 429s,
			// as designed; outputs must still be correct.
			shed := raceEnabled && w == "serve"
			if !res.Correct || (res.Failed != 0 && !shed) || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d; stderr:\n%s",
					w, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			want := 0
			for _, m := range catalog {
				if m.layer != (trace == "1") {
					continue
				}
				want++
				v, ok := res.Metrics[m.name]
				if !ok {
					t.Errorf("%s trace=%s: metric %s missing", w, trace, m.name)
					continue
				}
				if v.Unit != m.unit {
					t.Errorf("%s trace=%s: %s unit %q, want %q", w, trace, m.name, v.Unit, m.unit)
				}
				if !m.layer && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, m.name, v.Value)
				}
				if !strings.Contains(stdout.String(), m.name+" ") {
					t.Errorf("%s trace=%s: %s not printed by name", w, trace, m.name)
				}
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace=%s: %d metrics, want %d", w, trace, len(res.Metrics), want)
			}
			if trace == "1" {
				if cov := res.Metrics["trace.coverage"].Value; cov < 0.9 {
					t.Errorf("%s: spans cover %.1f%% of the pass wall, want ≥ 90%%", w, 100*cov)
				}
			}
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "convert", "-trace", "2"},
		{"-workload", "convert", "-scale", "0"},
		{"-bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d with output %q", args, code, stdout.String())
		}
	}
}
