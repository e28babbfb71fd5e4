package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// provenance stamps a result with what it was measured on, so results
// from different hosts and revisions form a comparable trajectory.
type provenance struct {
	workload   string
	seed       int64
	nproc      int
	cpus       int
	cpuModel   string
	llcBytes   int64
	goVersion  string
	revision   string
	inputBytes int64
	records    int64
}

func stampProvenance(cfg config, fx fixture) provenance {
	return provenance{
		workload:   cfg.workload,
		seed:       cfg.seed,
		nproc:      cfg.nproc,
		cpus:       runtime.NumCPU(),
		cpuModel:   cpuModel(),
		llcBytes:   lastLevelCache(),
		goVersion:  runtime.Version(),
		revision:   revision(),
		inputBytes: fx.inputBytes(),
		records:    fx.records(),
	}
}

func (p provenance) lines() []string {
	return []string{
		fmt.Sprintf("nproc=%d cpus=%d", p.nproc, p.cpus),
		fmt.Sprintf("cpu_model=%s", p.cpuModel),
		fmt.Sprintf("llc_bytes=%d", p.llcBytes),
		fmt.Sprintf("go_version=%s", p.goVersion),
		fmt.Sprintf("git_revision=%s", p.revision),
		fmt.Sprintf("seed=%d", p.seed),
		fmt.Sprintf("input_bytes=%d input_records=%d", p.inputBytes, p.records),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// lastLevelCache returns the size of CPU 0's highest-level cache in
// bytes, or 0 when sysfs does not describe it.
func lastLevelCache() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var level, size int64
	for _, d := range dirs {
		l, err1 := readInt(filepath.Join(d, "level"))
		s, err2 := readSize(filepath.Join(d, "size"))
		if err1 == nil && err2 == nil && l >= level {
			level, size = l, s
		}
	}
	return size
}

func readInt(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
}

// readSize parses sysfs cache sizes such as "32K" or "105M".
func readSize(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	s := strings.TrimSpace(string(b))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	return n * mult, err
}

// revision is the VCS revision the binary was built from, when the
// build saw a git checkout.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "unknown (not built from a git checkout)"
	}
	return rev + dirty
}

// resetPeakRSS restarts the kernel's peak-RSS watermark (VmHWM) for
// this process; it reports false where the kernel refuses.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSS returns the process's peak resident set in bytes: VmHWM from
// /proc, or getrusage's lifetime maximum where /proc is unavailable.
func peakRSS() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
				return kb << 10, err
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return ru.Maxrss << 10, nil
}
