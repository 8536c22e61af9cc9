package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/kernel"
)

// metricDef describes an end-to-end metric: its unit, which direction
// is better, and bound, the share of the parent's median by which it
// may worsen before a change counts as a regression.
type metricDef struct {
	unit, better string
	bound        float64
}

// endToEndDefs is the catalogue of end-to-end metrics. Each workload
// reports the ones that apply to it; -compare judges them with these
// bounds. The names in gatedEndToEnd apply to every workload and are
// the ones BENCHMARK.json lists, with the same units and bounds (a
// test keeps the two in step).
var endToEndDefs = map[string]metricDef{
	"setup_s":          {"s", "lower", 0.25},
	"fail_ratio":       {"ratio", "lower", 0},
	"factor_ms_p50":    {"ms", "lower", 0.25},
	"factor_ms_p90":    {"ms", "lower", 0.25},
	"solve_ms_p50":     {"ms", "lower", 0.25},
	"solve_ms_p90":     {"ms", "lower", 0.25},
	"small_ms_p50":     {"ms", "lower", 0.25},
	"small_ms_p90":     {"ms", "lower", 0.25},
	"factor512_ms_p50": {"ms", "lower", 0.25},
	"factor512_ms_p90": {"ms", "lower", 0.25},
	"gepp512_ms_p50":   {"ms", "lower", 0.25},
	"req_per_s":        {"1/s", "higher", 0.25},
}

// The 90th percentiles are left out of the gated set: on a shared
// 2-CPU host they moved by up to twice as much as the medians when the
// host was busy, and their spread over ten runs (up to 0.6 of the
// median) exceeded any bound BENCHMARK.json may set. They are still
// reported and judged by -compare.
var gatedEndToEnd = []string{"setup_s", "factor_ms_p50", "solve_ms_p50"}

// gatedPerLayer are the per-layer metrics every workload's traced run
// measures; the rest are workload-specific and appear only in the
// table and the result file.
var gatedPerLayer = []string{"kernel.gemm512_gflops", "trace.overhead_pct"}

// tally collects one run's observations. It is safe for concurrent
// use.
type tally struct {
	mu        sync.Mutex
	lat       map[string][]float64 // milliseconds per operation kind
	attempted int
	failed    int
	errs      []string
	elapsed   time.Duration
	// obs holds further per-operation observations (queue waits, busy
	// seconds, counters) keyed by the metric they feed.
	obs map[string][]float64
}

func newTally() *tally {
	return &tally{lat: map[string][]float64{}, obs: map[string][]float64{}}
}

// ok records a correct operation of kind op that took d.
func (t *tally) ok(op string, d time.Duration) {
	t.mu.Lock()
	t.attempted++
	t.lat[op] = append(t.lat[op], d.Seconds()*1e3)
	t.mu.Unlock()
}

// fail records an operation that errored, was refused or was wrong.
func (t *tally) fail(op string, err error) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	if len(t.errs) < 10 {
		t.errs = append(t.errs, fmt.Sprintf("%s: %v", op, err))
	}
	t.mu.Unlock()
}

// note records one observation for a per-layer metric.
func (t *tally) note(key string, v float64) {
	t.mu.Lock()
	t.obs[key] = append(t.obs[key], v)
	t.mu.Unlock()
}

// latency reports op's median as "<metric>_ms_p50" and, when tail is
// set, its tail as "<metric>_ms_p90": the 90th percentile when at
// least ten samples lie beyond it, otherwise the highest percentile
// that has ten beyond it, named in the note.
func (t *tally) latency(out map[string]measured, op, metric string, tail bool) {
	xs := t.lat[op]
	out[metric+"_ms_p50"] = measured{Value: percentile(xs, 0.5), Unit: "ms", N: len(xs)}
	if !tail {
		return
	}
	q := tailQuantile(len(xs), 0.9, 10)
	m := measured{Value: percentile(xs, q), Unit: "ms", N: len(xs)}
	if q < 0.9 {
		m.Note = fmt.Sprintf("p%.0f: fewer than 100 samples", 100*q)
	}
	out[metric+"_ms_p90"] = m
}

// obsMedian reports the median of an observation series.
func (t *tally) obsMedian(key, unit string) measured {
	xs := t.obs[key]
	return measured{Value: median(xs), Unit: unit, N: len(xs)}
}

// obsMean reports the mean of an observation series.
func (t *tally) obsMean(key, unit string) measured {
	xs := t.obs[key]
	return measured{Value: mean(xs), Unit: unit, N: len(xs)}
}

// gemmPeak measures isolated kernel.Gemm at 512^3, per core, as the
// best of several repetitions: the peak reference kernel.S_pct_peak
// divides by.
func gemmPeak() measured {
	const n, reps = 512, 7
	mk := func(seed float64) kernel.View {
		d := make([]float64, n*n)
		for i := range d {
			d[i] = float64(i%97)/97 - seed
		}
		return kernel.View{Rows: n, Cols: n, Stride: n, Data: d}
	}
	a, b, c := mk(0.5), mk(0.25), mk(0)
	best := 0.0
	for i := 0; i < reps; i++ {
		start := time.Now()
		kernel.Gemm(c, a, b)
		if g := 2 * n * n * n / time.Since(start).Seconds() / 1e9; g > best {
			best = g
		}
	}
	return measured{Value: best, Unit: "GFLOPS", N: reps, Note: "best of isolated 512^3 Gemm calls"}
}

// host is the metadata recorded with every result.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Profile    string `json:"tunerProfile"`
}

func (h host) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s tuner=%s",
		h.NProc, h.GOMAXPROCS, h.CPU, h.Go, h.Commit, h.Profile)
}

func hostInfo() host {
	p, src := kernel.ActiveProfile()
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit(),
		Profile: fmt.Sprintf("%s kc=%d mc=%d nc=%d (%s)",
			p.Kernel, p.KC, p.MC, p.NC, src),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, when the build
// ran inside a repository; "unknown" otherwise.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}
