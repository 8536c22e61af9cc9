// Command perfbench is the repository's benchmark. One run drives one
// workload from a seed for a fixed time, checks every output, and
// prints each metric by name with its unit and sample count; its last
// line is a JSON summary. With -trace 1 it splits the time between an
// untraced and a traced half and reports per-layer metrics, tracing
// overhead included, and writes the traced half's spans to a file.
//
//	bash perfbench/run.sh --workload lib-factor --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --compare OLD_RESULTS_DIR NEW_RESULTS_DIR
//
// The workloads and the reasons for them are listed in workloads; the
// metric catalogue, with the bound each end-to-end metric may worsen
// by, is in metrics.go.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/kernel"
)

// bench is one workload: a system under test plus the load that drives
// it.
type bench interface {
	// setUp builds the system under test. Its time, with the kernel
	// tuner's search before it, is setup_s; it must not depend on the
	// inputs, because setup probes run it alone.
	setUp() error
	// prepare makes the seeded inputs and whatever the checks compare
	// against, and warms the system; it is not timed.
	prepare(seed int64) error
	// run drives the load for d. A non-nil recorder also records spans
	// and the traced per-layer observations.
	run(d time.Duration, rec *recorder) *tally
	// endToEnd derives the workload's end-to-end metrics.
	endToEnd(t *tally) map[string]measured
	// perLayer derives the workload's per-layer metrics from a traced
	// tally and its spans.
	perLayer(t *tally, spans []span) map[string]measured
	tearDown()
}

// workload names a bench and records why the benchmark runs it; the
// names and reasons are the ones BENCHMARK.json lists.
type workload struct {
	name, why string
	make      func() bench
}

var workloads = []workload{
	{"lib-factor", "one caller in a closed loop on the library: CALU n=2048 is kernel-bound, n=512 is panel/critical-path-bound and raced against GEPP; engine, codec and router bypassed",
		func() bench { return &libFactor{} }},
	{"engine-mixed", "open loop of seeded Poisson arrivals into one resident engine (small, medium, solve mix): admission, fusion, lending and per-job graph build dominate",
		func() bench { return &engineMixed{} }},
	{"cluster-json", "two clients in a closed loop: JSON factor plus replication, then solves, through the router to 3 shards; codec- and routing-bound, kernel barely matters",
		func() bench { return &clusterJSON{} }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupProbes is how many extra set-ups, each in a fresh process with
// a fresh tuner directory, join the run's own to give setup_s a median.
const setupProbes = 4

// buildDir holds everything the benchmark writes, relative to the
// directory it runs from.
const buildDir = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	traced := fs.Int("trace", 0, "1 = untraced half plus traced half, reporting per-layer metrics")
	results := fs.String("results", filepath.Join(buildDir, "results"), "directory for per-run result files")
	compare := fs.Bool("compare", false, "compare two result directories given as arguments")
	probe := fs.Bool("setup-probe", false, "measure one set-up of -workload and print it (internal)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs OLD and NEW result directories")
			return 2
		}
		if err := compareDirs(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *probe {
		b := w.make()
		s, err := setUpOnce(b)
		b.tearDown()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: setup probe:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%.9f\n", s)
		return 0
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: need -seconds > 0 and -trace 0 or 1")
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := saveResult(*results, res); err != nil {
		fmt.Fprintln(stderr, "perfbench: saving result:", err)
		return 1
	}
	printResult(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// freshTuneDir points the kernel tuner at a new private directory, so
// the profile is searched on this host now instead of read from
// whatever an earlier process persisted.
func freshTuneDir() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(buildDir, "tune-")
	if err != nil {
		return "", err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	if err := os.Unsetenv("HSD_TUNE"); err != nil {
		return "", err
	}
	return abs, os.Setenv("HSD_TUNE_DIR", abs)
}

// setUpOnce tunes the kernel in a fresh directory and builds b's
// system, returning the seconds both took. b is left set up.
func setUpOnce(b bench) (float64, error) {
	dir, err := freshTuneDir()
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	kernel.ActiveProfile()
	if err := b.setUp(); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// probeSetups runs n set-up probes of w, each in a fresh process.
func probeSetups(w workload, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		var buf bytes.Buffer
		cmd := exec.Command(exe, "-setup-probe", "-workload", w.name)
		cmd.Stdout, cmd.Stderr = &buf, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		var s float64
		if _, err := fmt.Sscan(buf.String(), &s); err != nil {
			return nil, fmt.Errorf("setup probe output %q: %w", buf.String(), err)
		}
		out = append(out, s)
	}
	return out, nil
}

// measure performs one benchmark run of w.
func measure(w workload, seed int64, d time.Duration, traced bool, log io.Writer) (*runResult, error) {
	b := w.make()
	setup, err := setUpOnce(b)
	defer b.tearDown()
	if err != nil {
		return nil, err
	}
	probes, err := probeSetups(w, setupProbes)
	if err != nil {
		return nil, err
	}
	setups := append(probes, setup)
	res := &runResult{Workload: w.name, Why: w.why, Seed: seed, Seconds: d.Seconds(), Trace: traced,
		Host: hostInfo(), Correct: true, EndToEnd: map[string]measured{}, PerLayer: map[string]measured{}}
	fmt.Fprintf(log, "host: %s\n", res.Host)
	fmt.Fprintf(log, "workload: %s seed=%d seconds=%g trace=%v (%s)\n", w.name, seed, d.Seconds(), traced, w.why)
	if err := b.prepare(seed); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	plain := d
	if traced {
		plain = d / 2
	}
	t := b.run(plain, nil)
	res.add(t)
	res.EndToEnd = b.endToEnd(t)
	res.EndToEnd["setup_s"] = measured{Value: median(setups), Unit: "s", N: len(setups)}
	if traced {
		rec := newRecorder()
		tt := b.run(d-plain, rec)
		res.add(tt)
		spans := rec.snapshot()
		res.PerLayer = b.perLayer(tt, spans)
		res.PerLayer["kernel.gemm512_gflops"] = gemmPeak()
		if kp, ok := res.PerLayer["kernel.S_gflops"]; ok {
			peak := res.PerLayer["kernel.gemm512_gflops"].Value
			res.PerLayer["kernel.S_pct_peak"] = measured{Value: 100 * kp.Value / peak, Unit: "%", N: kp.N}
		}
		u, v := res.EndToEnd["factor_ms_p50"], b.endToEnd(tt)["factor_ms_p50"]
		res.PerLayer["trace.overhead_pct"] = measured{Value: 100 * (v.Value/u.Value - 1), Unit: "%", N: v.N,
			Note: "traced factor_ms_p50 against the untraced half's"}
		res.Layers = layerSelf(spans)
		res.SpanFile = filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, seed))
		if err := writeSpans(res.SpanFile, w.name, seed, spans); err != nil {
			return nil, err
		}
	}
	res.EndToEnd["fail_ratio"] = measured{Value: float64(res.Failed) / float64(max(res.Attempted, 1)),
		Unit: "ratio", N: res.Attempted}
	return res, nil
}

// measured is one metric value with the evidence behind it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

// runResult is everything one run reports; it is saved as JSON for
// -compare and summarized on stdout.
type runResult struct {
	Workload  string              `json:"workload"`
	Why       string              `json:"why"`
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Trace     bool                `json:"trace"`
	Host      host                `json:"host"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Errors    []string            `json:"errors,omitempty"`
	EndToEnd  map[string]measured `json:"endToEnd"`
	PerLayer  map[string]measured `json:"perLayer,omitempty"`
	Layers    map[string]float64  `json:"layerSelfSeconds,omitempty"`
	SpanFile  string              `json:"spanFile,omitempty"`
}

func (r *runResult) add(t *tally) {
	r.Attempted += t.attempted
	r.Failed += t.failed
	r.Errors = append(r.Errors, t.errs...)
	r.Correct = r.Correct && t.failed == 0
}

func saveResult(dir string, r *runResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-trace%d-seed%d.json", r.Workload, btoi(r.Trace), r.Seed)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printResult writes the human-readable table and, last, the JSON
// summary line. The summary carries the catalogue's listed end-to-end
// metrics (untraced run) or listed per-layer metrics (traced run).
func printResult(w io.Writer, r *runResult) {
	section := func(title string, ms map[string]measured) {
		fmt.Fprintln(w, title)
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := ms[n]
			fmt.Fprintf(w, "  %-34s %14.6g %-7s n=%-6d %s\n", n, m.Value, m.Unit, m.N, m.Note)
		}
	}
	section("end-to-end:", r.EndToEnd)
	if r.Trace {
		section("per-layer (traced half):", r.PerLayer)
		section("layer self time in the traced half, seconds (worker-seconds for task layers):", secondsOf(r.Layers))
		fmt.Fprintf(w, "spans: %s\n", r.SpanFile)
	}
	for _, e := range r.Errors {
		fmt.Fprintln(w, "error:", e)
	}
	type kv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]kv{}
	src, listed := r.EndToEnd, gatedEndToEnd
	if r.Trace {
		src, listed = r.PerLayer, gatedPerLayer
	}
	for _, name := range listed {
		m := src[name]
		out[name] = kv{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]kv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, out})
	fmt.Fprintln(w, string(line))
}

func secondsOf(m map[string]float64) map[string]measured {
	out := map[string]measured{}
	for k, v := range m {
		out[k] = measured{Value: v, Unit: "s"}
	}
	return out
}

var errCheck = errors.New("wrong output")
