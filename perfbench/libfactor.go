package main

import (
	"fmt"
	"math"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/rt"
	"repro/internal/trace"
)

// libFactor is the lib-factor workload: one caller in a closed loop
// calling the library directly. Each iteration factors n=2048 (b=128),
// solves 32 right-hand sides on that factorization, factors n=512
// (b=64) and runs the GEPP baseline on the same n=512 matrix.
type libFactor struct {
	big, rhs, small *repro.Matrix
	// want holds the first iteration's output digests; every later
	// iteration must reproduce them bit for bit.
	want map[string]uint64
}

const (
	libWorkers = 2
	libTol     = 1e-12
)

var (
	libBigOpt = repro.Options{Layout: repro.LayoutBlockCyclic, Block: 128, Workers: libWorkers,
		Scheduler: repro.ScheduleHybrid, DynamicRatio: 0.1}
	libSmallOpt = repro.Options{Layout: repro.LayoutBlockCyclic, Block: 64, Workers: libWorkers,
		Scheduler: repro.ScheduleHybrid, DynamicRatio: 0.1}
	libSolveOpt = repro.Options{Block: 128, Workers: libWorkers}
	libGEPPOpt  = repro.GEPPOptions{Block: 64, Workers: libWorkers}
)

func (l *libFactor) setUp() error { return nil }
func (l *libFactor) tearDown()    {}

func (l *libFactor) prepare(seed int64) error {
	l.big = repro.RandomMatrix(2048, 2048, seed)
	l.rhs = repro.RandomMatrix(2048, 32, seed+1)
	l.small = repro.RandomMatrix(512, 512, seed+2)
	l.want = map[string]uint64{}
	// The first iteration is the warm-up; it also fixes the digests.
	t := newTally()
	l.iterate(t, nil)
	if t.failed > 0 {
		return fmt.Errorf("warm-up: %s", t.errs[0])
	}
	return nil
}

func (l *libFactor) run(d time.Duration, rec *recorder) *tally {
	t := newTally()
	start := time.Now()
	for time.Since(start) < d {
		l.iterate(t, rec)
	}
	t.elapsed = time.Since(start)
	return t
}

// iterate runs one iteration, timing and checking each call.
func (l *libFactor) iterate(t *tally, rec *recorder) {
	f, err := l.calu(t, rec, "factor", l.big, libBigOpt)
	if err != nil {
		t.fail("factor", err)
		return
	}
	var tr *trace.Trace
	opt := libSolveOpt
	if rec != nil {
		tr = trace.New(libWorkers)
		opt.Trace = tr
	}
	start := time.Now()
	x, err := f.SolveMany(l.rhs, opt)
	end := time.Now()
	if err == nil {
		err = l.check("solve", digest(0, x.Data), func() error { return residuals(l.big, x, l.rhs) })
	}
	if err != nil {
		t.fail("solve", err)
	} else {
		t.ok("solve", end.Sub(start))
		if rec != nil {
			id := rec.add(0, "core", "solve", "", start, end)
			rec.addTasks(id, tr, start)
			t.note("kernel.solve_busy_s", labelBusy(tr, 'D', 'R'))
		}
	}

	if _, err := l.calu(t, rec, "factor512", l.small, libSmallOpt); err != nil {
		t.fail("factor512", err)
	}

	start = time.Now()
	g, err := repro.FactorGEPP(l.small, libGEPPOpt)
	end = time.Now()
	if err == nil {
		err = l.check("gepp512", factorDigest(g), func() error { return solveCheck(l.small, g) })
	}
	if err != nil {
		t.fail("gepp512", err)
		return
	}
	t.ok("gepp512", end.Sub(start))
	rec.add(0, "baseline", "gepp512", "", start, end)
}

// calu factors a with opt and checks the result. Untraced it is one
// repro.Factor call; traced it runs the same three steps Factor does
// (graph build, runtime, finish) separately, so each gets a span and
// the task spans can be matched to their flop counts.
func (l *libFactor) calu(t *tally, rec *recorder, op string, a *repro.Matrix, opt repro.Options) (*repro.Factorization, error) {
	var f *repro.Factorization
	var err error
	start := time.Now()
	if rec == nil {
		f, err = repro.Factor(a, opt)
	} else {
		f, err = tracedFactor(t, rec, op, a, opt)
	}
	end := time.Now()
	if err != nil {
		return nil, err
	}
	if err := l.check(op, factorDigest(f), func() error { return solveCheck(a, f) }); err != nil {
		return nil, err
	}
	t.ok(op, end.Sub(start))
	return f, nil
}

// tracedFactor is repro.Factor with spans: it records the build, run
// and finish steps, the task spans, and the layer observations of one
// factorization under the keys "<op>.<metric>".
func tracedFactor(t *tally, rec *recorder, op string, a *repro.Matrix, opt repro.Options) (*repro.Factorization, error) {
	tr := trace.New(opt.Workers)
	t0 := time.Now()
	job, err := core.PrepareFactor(a, opt)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	res, err := rt.Run(job.Graph(), job.Policy(), rt.Options{Workers: job.Opt.Workers, Trace: tr})
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	f := job.Finish(res)
	t3 := time.Now()

	root := rec.add(0, "core", op, "", t0, t3)
	rec.add(root, "dag", "build", "", t0, t1)
	run := rec.add(root, "rt", "run", "", t1, t2)
	rec.addTasks(run, tr, t1)
	rec.add(root, "core", "finish", "", t2, t3)

	g := job.Graph()
	sFlops := 0.0
	for _, task := range g.Tasks {
		if task.Kind == dag.S {
			sFlops += task.Flops
		}
	}
	sBusy := labelBusy(tr, 'S')
	t.note(op+".S_flops", sFlops)
	t.note(op+".S_busy_s", sBusy)
	t.note(op+".trsm_busy_s", labelBusy(tr, 'L', 'U'))
	t.note(op+".F_busy_s", labelBusy(tr, 'F'))
	t.note(op+".P_busy_s", labelBusy(tr, 'P'))
	t.note(op+".idle_frac", tr.IdleFraction())
	t.note(op+".permanent_idle_point", tr.PermanentIdlePoint(0.5))
	t.note(op+".dequeue_static", float64(f.Counters.DequeueStatic))
	t.note(op+".dequeue_dynamic", float64(f.Counters.DequeueDynamic))
	t.note(op+".steals", float64(f.Counters.Steals))
	t.note(op+".mismatches", float64(f.Counters.Mismatches))
	t.note(op+".build_ms", t1.Sub(t0).Seconds()*1e3)
	t.note(op+".run_ms", t2.Sub(t1).Seconds()*1e3)
	t.note(op+".finish_ms", t3.Sub(t2).Seconds()*1e3)
	t.note(op+".tasks", float64(len(g.Tasks)))
	t.note(op+".critical_path_flops", g.CriticalPathFlops())
	return f, nil
}

// check compares an output digest with the first iteration's, running
// first (the residual check) only when there is nothing to compare to
// yet.
func (l *libFactor) check(op string, d uint64, first func() error) error {
	want, seen := l.want[op]
	if !seen {
		if err := first(); err != nil {
			return err
		}
		l.want[op] = d
		return nil
	}
	if d != want {
		return fmt.Errorf("%w: output differs from the first iteration's", errCheck)
	}
	return nil
}

func (l *libFactor) endToEnd(t *tally) map[string]measured {
	out := map[string]measured{}
	t.latency(out, "factor", "factor", true)
	t.latency(out, "solve", "solve", true)
	t.latency(out, "factor512", "factor512", true)
	t.latency(out, "gepp512", "gepp512", false)
	return out
}

func (l *libFactor) perLayer(t *tally, spans []span) map[string]measured {
	out := map[string]measured{}
	sGflops := sum(t.obs["factor.S_flops"]) / sum(t.obs["factor.S_busy_s"]) / 1e9
	n := len(t.obs["factor.S_flops"])
	out["kernel.S_gflops"] = measured{Value: sGflops, Unit: "GFLOPS", N: n, Note: "n=2048 S tasks, per core"}
	out["kernel.trsm_busy_s"] = t.obsMean("factor.trsm_busy_s", "s")
	out["kernel.F_busy_s"] = t.obsMean("factor.F_busy_s", "s")
	out["piv.P_busy_s"] = t.obsMean("factor.P_busy_s", "s")
	out["kernel.solve_busy_s"] = t.obsMean("kernel.solve_busy_s", "s")
	// The scheduling and graph metrics describe the n=512 CALU, the
	// panel- and critical-path-bound case.
	out["rt.idle_frac"] = t.obsMedian("factor512.idle_frac", "ratio")
	out["rt.permanent_idle_point"] = t.obsMedian("factor512.permanent_idle_point", "ratio")
	for _, c := range []string{"dequeue_static", "dequeue_dynamic", "steals", "mismatches"} {
		out["sched."+c] = t.obsMean("factor512."+c, "count")
	}
	out["dag.build_ms"] = t.obsMedian("factor512.build_ms", "ms")
	out["core.finish_ms"] = t.obsMedian("factor512.finish_ms", "ms")
	out["dag.tasks"] = t.obsMedian("factor512.tasks", "count")
	cp := t.obsMedian("factor512.critical_path_flops", "ms")
	cp.Value = cp.Value / (sGflops * 1e9) * 1e3
	cp.Note = "critical-path flops at kernel.S_gflops"
	out["dag.critical_path_ms"] = cp
	// The n=512 CALU's own busy times and runtime span, for setting it
	// beside gepp512_ms_p50.
	for _, k := range []string{"P_busy_s", "F_busy_s", "trsm_busy_s", "S_busy_s"} {
		out["n512."+k] = t.obsMedian("factor512."+k, "s")
	}
	out["n512.run_ms"] = t.obsMedian("factor512.run_ms", "ms")
	return out
}

// labelBusy sums the busy seconds of the trace's spans with any of the
// given labels.
func labelBusy(tr *trace.Trace, labels ...byte) float64 {
	total := 0.0
	for _, spans := range tr.Spans {
		for _, s := range spans {
			for _, l := range labels {
				if s.Label == l {
					total += s.End - s.Start
				}
			}
		}
	}
	return total
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// digest folds the exact bit patterns of xs into h (FNV-1a over 64-bit
// words). Any single changed value changes the result.
func digest(h uint64, xs []float64) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	for _, x := range xs {
		h ^= math.Float64bits(x)
		h *= 1099511628211
	}
	return h
}

func factorDigest(f *repro.Factorization) uint64 {
	p := make([]float64, len(f.Perm))
	for i, v := range f.Perm {
		p[i] = float64(v)
	}
	return digest(digest(digest(0, f.L.Data), f.U.Data), p)
}

// solveCheck solves one seeded right-hand side with f's factors and
// checks the residual against a: an O(n^2) test that f factors a.
func solveCheck(a *repro.Matrix, f *repro.Factorization) error {
	b := repro.RandomMatrix(a.Rows, 1, 7).Data
	x, err := f.Solve(b)
	if err != nil {
		return err
	}
	if r := repro.SolveResidual(a, x, b); !(r <= libTol) {
		return fmt.Errorf("%w: solve residual %.3g above %g", errCheck, r, libTol)
	}
	return nil
}

// residuals checks every column of x against a x = b.
func residuals(a, x, b *repro.Matrix) error {
	for j := 0; j < b.Cols; j++ {
		if r := repro.SolveResidual(a, x.Col(j), b.Col(j)); !(r <= libTol) {
			return fmt.Errorf("%w: rhs %d residual %.3g above %g", errCheck, j, r, libTol)
		}
	}
	return nil
}
