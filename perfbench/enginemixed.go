package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/rt"
	"repro/internal/trace"
)

// engineMixed is the engine-mixed workload: an open loop of seeded
// Poisson arrivals into one resident engine configured as hsdserve
// ships it (2 workers, inter-job DynamicRatio 0.25). The mix is small
// factors (express lane, fusion), medium factors (big lane) and
// multi-RHS solves against kept factorizations. The offered rate sits
// below capacity, so queues form but the backlog does not grow.
type engineMixed struct {
	eng *engine.Engine

	small, medium []*repro.Matrix
	kept          []*repro.Factorization
	rhs           []*repro.Matrix
	// Reference digests: factors by matrix and granted width (CALU's
	// tournament tree depends on the width), solves by kept
	// factorization and right-hand side block.
	smallRef, mediumRef map[[2]int]uint64
	solveRef            map[[2]int]uint64
	// sFlops is the S-task flop count of each medium matrix by width.
	sFlops map[[2]int]float64
	seed   int64
	phase  int64
}

const (
	engWorkers = 2
	// Offered rates per second. They keep the pool busy about a quarter
	// of the time on a 2-CPU host: bursts queue and small jobs fuse, but
	// the backlog drains. At higher rates the solve tail was set by the
	// share of solves stuck behind two medium factors, which swung from
	// run to run.
	engSmallRate  = 150.0
	engMediumRate = 6.0
	engSolveRate  = 10.0
	engSolveRHS   = 8
)

var (
	engSmallOpt  = core.Options{Block: 32, Scheduler: core.ScheduleHybrid, DynamicRatio: 0.1}
	engMediumOpt = core.Options{Block: 64, Scheduler: core.ScheduleHybrid, DynamicRatio: 0.1}
	engSolveOpt  = core.Options{Block: 64}
)

func (e *engineMixed) setUp() error {
	eng, err := engine.New(engine.Options{Workers: engWorkers, DynamicRatio: 0.25})
	e.eng = eng
	return err
}

func (e *engineMixed) tearDown() {
	if e.eng != nil {
		e.eng.Close()
	}
}

func (e *engineMixed) prepare(seed int64) error {
	e.seed = seed
	// Sizes are fixed so that every seed offers the same work; the seed
	// draws the entries, the arrival times and which matrix each
	// arrival uses. Five equally likely sizes per class put the median
	// inside the middle size's latencies and the 90th percentile inside
	// the largest's; with an even count the median sat in the gap
	// between two sizes and jumped with the drawn mix.
	for i := 0; i < 5; i++ {
		n := 64 + 8*i
		e.small = append(e.small, repro.RandomMatrix(n, n, seed+int64(100+i)))
		n = 384 + 32*i
		e.medium = append(e.medium, repro.RandomMatrix(n, n, seed+int64(200+i)))
	}
	e.smallRef, e.mediumRef = map[[2]int]uint64{}, map[[2]int]uint64{}
	e.solveRef, e.sFlops = map[[2]int]uint64{}, map[[2]int]float64{}
	for w := 1; w <= engWorkers; w++ {
		for i, a := range e.small {
			d, err := refFactor(a, engSmallOpt, w)
			if err != nil {
				return err
			}
			e.smallRef[[2]int{i, w}] = d
		}
		for i, a := range e.medium {
			d, err := refFactor(a, engMediumOpt, w)
			if err != nil {
				return err
			}
			e.mediumRef[[2]int{i, w}] = d
			opt := engMediumOpt
			opt.Workers = w
			job, err := core.PrepareFactor(a, opt)
			if err != nil {
				return err
			}
			for _, t := range job.Graph().Tasks {
				if t.Kind == dag.S {
					e.sFlops[[2]int{i, w}] += t.Flops
				}
			}
		}
	}
	for k := 0; k < 2; k++ {
		a := repro.RandomMatrix(512, 512, seed+int64(300+k))
		opt := engMediumOpt
		opt.Workers = engWorkers
		f, err := repro.Factor(a, opt)
		if err != nil {
			return err
		}
		e.kept = append(e.kept, f)
		for r := 0; r < 4; r++ {
			if k == 0 {
				e.rhs = append(e.rhs, repro.RandomMatrix(512, engSolveRHS, seed+int64(400+r)))
			}
			x, err := f.SolveMany(e.rhs[r], core.Options{Block: engSolveOpt.Block, Workers: 1})
			if err != nil {
				return err
			}
			if err := residuals(a, x, e.rhs[r]); err != nil {
				return err
			}
			e.solveRef[[2]int{k, r}] = digest(0, x.Data)
		}
	}
	// Warm the engine: one job of each kind.
	t := newTally()
	e.load(t, nil, []arrival{{0, kindSmall, 0}, {0, kindMedium, 0}, {0, kindSolve, 0}})
	if t.failed > 0 {
		return fmt.Errorf("warm-up: %s", t.errs[0])
	}
	return nil
}

// refFactor factors a one-shot at width w, checks it, and returns its
// digest.
func refFactor(a *repro.Matrix, opt core.Options, w int) (uint64, error) {
	opt.Workers = w
	f, err := repro.Factor(a, opt)
	if err != nil {
		return 0, err
	}
	if err := solveCheck(a, f); err != nil {
		return 0, err
	}
	return factorDigest(f), nil
}

type jobKind int

const (
	kindSmall jobKind = iota
	kindMedium
	kindSolve
)

var kindOp = [...]string{"small", "factor", "solve"}

// arrival is one scheduled job: due is its offset from the start of
// the run, pick selects the input.
type arrival struct {
	due  time.Duration
	kind jobKind
	pick int
}

// schedule draws Poisson arrivals over d from rng.
func (e *engineMixed) schedule(rng *rand.Rand, d time.Duration) []arrival {
	total := engSmallRate + engMediumRate + engSolveRate
	var out []arrival
	at := 0.0
	for {
		at += rng.ExpFloat64() / total
		if at >= d.Seconds() {
			return out
		}
		a := arrival{due: time.Duration(at * float64(time.Second))}
		switch u := rng.Float64() * total; {
		case u < engSmallRate:
			a.kind, a.pick = kindSmall, rng.Intn(len(e.small))
		case u < engSmallRate+engMediumRate:
			a.kind, a.pick = kindMedium, rng.Intn(len(e.medium))
		default:
			a.kind, a.pick = kindSolve, rng.Intn(len(e.kept)*len(e.rhs))
		}
		out = append(out, a)
	}
}

func (e *engineMixed) run(d time.Duration, rec *recorder) *tally {
	e.phase++
	rng := rand.New(rand.NewSource(e.seed*1000 + e.phase))
	before := e.eng.Stats()
	t := newTally()
	start := time.Now()
	e.load(t, rec, e.schedule(rng, d))
	t.elapsed = time.Since(start)
	after := e.eng.Stats()
	t.note("engine.lends", float64(after.Lends-before.Lends))
	t.note("engine.shed", float64(after.Shed-before.Shed))
	t.note("engine.fused_jobs", float64(after.FusedJobs-before.FusedJobs))
	if rec != nil {
		e.graphProbe(t)
	}
	return t
}

// load submits the arrivals on schedule from one generator goroutine
// and waits for every job. Latency runs from each job's due time.
func (e *engineMixed) load(t *tally, rec *recorder, arrivals []arrival) {
	var wg sync.WaitGroup
	start := time.Now()
	for _, a := range arrivals {
		due := start.Add(a.due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		submitted := time.Now()
		t.note("gen.late_ms", submitted.Sub(due).Seconds()*1e3)
		// A traced job is never fused, so small jobs stay untraced to
		// keep the express lane's behaviour.
		var tr *trace.Trace
		if rec != nil && a.kind != kindSmall {
			tr = trace.New(engWorkers)
		}
		var job *engine.Job
		var err error
		switch a.kind {
		case kindSmall:
			job, err = e.eng.SubmitFactor(e.small[a.pick], engSmallOpt)
		case kindMedium:
			opt := engMediumOpt
			opt.Trace = tr
			job, err = e.eng.SubmitFactor(e.medium[a.pick], opt)
		default:
			opt := engSolveOpt
			opt.Trace = tr
			job, err = e.eng.SubmitSolveMany(e.kept[a.pick/len(e.rhs)], e.rhs[a.pick%len(e.rhs)], opt)
		}
		op := kindOp[a.kind]
		if err != nil {
			t.fail(op, err)
			continue
		}
		wg.Add(1)
		go func(a arrival, job *engine.Job, tr *trace.Trace) {
			defer wg.Done()
			err := job.Wait()
			end := time.Now()
			if err == nil {
				err = e.check(a, job)
			}
			if err != nil {
				t.fail(op, err)
				return
			}
			t.ok(op, end.Sub(due))
			e.observe(t, rec, a, job, tr, due, submitted, end)
		}(a, job, tr)
	}
	wg.Wait()
}

// check compares a finished job's output with its reference.
func (e *engineMixed) check(a arrival, job *engine.Job) error {
	var got, want uint64
	var ok bool
	switch a.kind {
	case kindSmall:
		got = factorDigest(job.Factorization())
		want, ok = e.smallRef[[2]int{a.pick, job.Granted()}]
	case kindMedium:
		got = factorDigest(job.Factorization())
		want, ok = e.mediumRef[[2]int{a.pick, job.Granted()}]
	default:
		got = digest(0, job.SolutionMatrix().Data)
		want, ok = e.solveRef[[2]int{a.pick / len(e.rhs), a.pick % len(e.rhs)}]
	}
	if !ok {
		return fmt.Errorf("%w: no reference for width %d", errCheck, job.Granted())
	}
	if got != want {
		return fmt.Errorf("%w: %s output differs from the one-shot reference", errCheck, kindOp[a.kind])
	}
	return nil
}

// observe records one finished job's engine-layer observations and,
// when traced, its spans: the generator's lateness, the engine queue,
// and execution with the job's task spans inside it.
func (e *engineMixed) observe(t *tally, rec *recorder, a arrival, job *engine.Job, tr *trace.Trace, due, submitted, end time.Time) {
	class := job.Class().String()
	t.note("engine.queue_wait_ms."+class, job.QueueWait().Seconds()*1e3)
	t.note("engine.exec_ms."+class, job.Span().Seconds()*1e3)
	t.note("engine.granted", float64(job.Granted()))
	if rec == nil {
		return
	}
	started := submitted.Add(job.QueueWait())
	root := rec.add(0, "client", kindOp[a.kind], "", due, end)
	rec.add(root, "gen", "late", "", due, submitted)
	eng := rec.add(root, "engine", "job", "", submitted, end)
	rec.add(eng, "engine", "queue", "", submitted, started)
	exec := rec.add(eng, "engine", "exec", "", started, started.Add(job.Span()))
	// Task times are relative to the executor's start, which follows
	// the job's start by its graph build; anchoring them at the start
	// shifts them early by that much.
	rec.addTasks(exec, tr, started)
	if a.kind != kindMedium {
		return
	}
	f := job.Factorization()
	t.note("medium.S_flops", e.sFlops[[2]int{a.pick, job.Granted()}])
	t.note("medium.S_busy_s", labelBusy(tr, 'S'))
	t.note("medium.idle_frac", tr.IdleFraction())
	t.note("medium.permanent_idle_point", tr.PermanentIdlePoint(0.5))
	t.note("medium.dequeue_static", float64(f.Counters.DequeueStatic))
	t.note("medium.dequeue_dynamic", float64(f.Counters.DequeueDynamic))
	t.note("medium.steals", float64(f.Counters.Steals))
	t.note("medium.mismatches", float64(f.Counters.Mismatches))
}

// graphProbe measures, outside the load, the per-job graph costs the
// engine pays for each small matrix of the mix: building the CALU
// graph and assembling the result, plus the graph's size and critical
// path.
func (e *engineMixed) graphProbe(t *tally) {
	for _, a := range e.small {
		opt := engSmallOpt
		opt.Workers = 1
		t0 := time.Now()
		job, err := core.PrepareFactor(a, opt)
		if err != nil {
			t.fail("graph-probe", err)
			return
		}
		t1 := time.Now()
		res, err := rt.Run(job.Graph(), job.Policy(), rt.Options{Workers: 1})
		if err != nil {
			t.fail("graph-probe", err)
			return
		}
		t2 := time.Now()
		job.Finish(res)
		t3 := time.Now()
		t.note("small.build_ms", t1.Sub(t0).Seconds()*1e3)
		t.note("small.finish_ms", t3.Sub(t2).Seconds()*1e3)
		t.note("small.tasks", float64(len(job.Graph().Tasks)))
		t.note("small.critical_path_flops", job.Graph().CriticalPathFlops())
	}
}

func (e *engineMixed) endToEnd(t *tally) map[string]measured {
	out := map[string]measured{}
	t.latency(out, "factor", "factor", true)
	t.latency(out, "solve", "solve", true)
	t.latency(out, "small", "small", true)
	return out
}

func (e *engineMixed) perLayer(t *tally, spans []span) map[string]measured {
	out := map[string]measured{}
	late := t.obs["gen.late_ms"]
	out["gen.late_ms_p90"] = measured{Value: percentile(late, 0.9), Unit: "ms", N: len(late)}
	for _, class := range []string{"small", "large"} {
		out["engine.queue_wait_ms_p50."+class] = t.obsMedian("engine.queue_wait_ms."+class, "ms")
		out["engine.exec_ms_p50."+class] = t.obsMedian("engine.exec_ms."+class, "ms")
	}
	small := len(t.lat["small"])
	out["engine.fused_share"] = measured{Value: sum(t.obs["engine.fused_jobs"]) / float64(small), Unit: "ratio", N: small}
	out["engine.lends"] = measured{Value: sum(t.obs["engine.lends"]), Unit: "count", N: 1}
	out["engine.shed"] = measured{Value: sum(t.obs["engine.shed"]), Unit: "count", N: 1}
	out["engine.granted_mean"] = t.obsMean("engine.granted", "workers")

	sGflops := sum(t.obs["medium.S_flops"]) / sum(t.obs["medium.S_busy_s"]) / 1e9
	out["kernel.S_gflops"] = measured{Value: sGflops, Unit: "GFLOPS", N: len(t.obs["medium.S_flops"]),
		Note: "medium factors' S tasks, per core"}
	out["rt.idle_frac"] = t.obsMedian("medium.idle_frac", "ratio")
	out["rt.permanent_idle_point"] = t.obsMedian("medium.permanent_idle_point", "ratio")
	for _, c := range []string{"dequeue_static", "dequeue_dynamic", "steals", "mismatches"} {
		out["sched."+c] = t.obsMean("medium."+c, "count")
	}
	out["dag.build_ms"] = t.obsMedian("small.build_ms", "ms")
	out["core.finish_ms"] = t.obsMedian("small.finish_ms", "ms")
	out["dag.tasks"] = t.obsMedian("small.tasks", "count")
	cp := t.obsMedian("small.critical_path_flops", "ms")
	cp.Value = cp.Value / (sGflops * 1e9) * 1e3
	cp.Note = "critical-path flops at kernel.S_gflops"
	out["dag.critical_path_ms"] = cp
	return out
}
