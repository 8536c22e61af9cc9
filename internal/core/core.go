// Package core is the heart of the library: communication-avoiding LU
// factorization (CALU) with tournament pivoting, executed under the
// paper's static, dynamic, or hybrid static/dynamic scheduling over any
// of the three data layouts. It exposes a high-level Factor/Solve API
// and the residual checks used by the test suite and examples.
package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dag"
	"repro/internal/kernel"
	"repro/internal/layout"
	"repro/internal/mat"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Scheduler selects the scheduling strategy of Table 1.
type Scheduler int

const (
	// ScheduleStatic is fully static owner-computes scheduling.
	ScheduleStatic Scheduler = iota
	// ScheduleDynamic is fully dynamic shared-queue scheduling.
	ScheduleDynamic
	// ScheduleHybrid is the paper's hybrid static/dynamic strategy; the
	// dynamic share is Options.DynamicRatio.
	ScheduleHybrid
	// ScheduleWorkStealing is randomized work stealing (section 8
	// comparison).
	ScheduleWorkStealing
)

// String names the scheduler like the paper's figure legends.
func (s Scheduler) String() string {
	switch s {
	case ScheduleStatic:
		return "static"
	case ScheduleDynamic:
		return "dynamic"
	case ScheduleHybrid:
		return "hybrid"
	case ScheduleWorkStealing:
		return "worksteal"
	}
	return fmt.Sprintf("Scheduler(%d)", int(s))
}

// JobClass labels a job for the resident engine's two-lane admission
// (engine package): small jobs ride an express lane that fuses waiting
// jobs into one composite DAG sharing a single worker reservation, big
// jobs are bounded to a configurable share of the pool so they cannot
// head-of-line-block everyone. One-shot Factor/Solve calls ignore it.
type JobClass uint8

const (
	// ClassAuto (the default) lets the engine classify the job by its
	// estimated flop cost.
	ClassAuto JobClass = iota
	// ClassSmall forces the job into the small-job express lane.
	ClassSmall
	// ClassLarge forces the job into the bounded big-job lane.
	ClassLarge
)

// String names the class like the /v1/stats output.
func (c JobClass) String() string {
	switch c {
	case ClassSmall:
		return "small"
	case ClassLarge:
		return "large"
	case ClassAuto:
		return "auto"
	}
	return fmt.Sprintf("JobClass(%d)", int(c))
}

// Options configures a factorization.
type Options struct {
	// Layout is the storage scheme (default BCL).
	Layout layout.Kind
	// Block is the block/tile size b (default 32; the paper uses 100).
	Block int
	// Workers is the parallelism degree (default 1).
	Workers int
	// Scheduler picks the policy (default ScheduleHybrid).
	Scheduler Scheduler
	// DynamicRatio is the paper's dratio: the fraction of block columns
	// scheduled dynamically under ScheduleHybrid. 0.1 reproduces the
	// paper's usual best configuration, "CALU static(10% dynamic)".
	DynamicRatio float64
	// Group is the k of the static section's grouped BLAS-3 updates;
	// <= 0 selects the paper's k=3 for groupable layouts.
	Group int
	// Trace, if non-nil, records the execution timeline.
	Trace *trace.Trace
	// Noise, if non-nil, injects a busy-wait after each task (failure
	// injection emulating OS interference).
	Noise func(worker int) time.Duration
	// Seed feeds the work-stealing victim selection.
	Seed int64
	// Class routes the job in the resident engine's two-lane admission;
	// ClassAuto classifies by estimated flop cost. Ignored by one-shot
	// calls.
	Class JobClass
	// Deadline, when positive, is the job's submit-relative SLO for the
	// resident engine: admission orders queued jobs by laxity (deadline
	// minus estimated service time), the dynamic share lends
	// preferentially to the latest job, and a submission whose
	// estimated service time already exceeds its deadline is shed with
	// ErrDeadlineInfeasible instead of queued. Zero means no deadline.
	// Ignored by one-shot calls.
	Deadline time.Duration

	// globalLock (tests only) runs the scheduler under the serialized
	// single-mutex dispatcher instead of the concurrent runtime: the A/B
	// reference the scheduler-equivalence tests compare bit-for-bit
	// against.
	globalLock bool
}

func (o *Options) fill() {
	if o.Block <= 0 {
		o.Block = 32
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Group <= 0 {
		// The paper's k=3 grouping exploits BCL's contiguity. For CM the
		// natural task granularity of Algorithm 2's dynamic section is a
		// whole column ("do task S ... for all I"), which CM's vertical
		// contiguity expresses as an unbounded row group. 2l-BL cannot
		// group at all (section 4.2).
		switch o.Layout {
		case layout.BCL:
			o.Group = 3
		case layout.CM:
			o.Group = 1 << 16
		default:
			o.Group = 1
		}
	}
}

// NstaticCols converts the scheduler + dratio into the number of block
// columns scheduled statically, Nstatic = N*(1-dratio) (Algorithm 1,
// line 2).
func (o Options) NstaticCols(nb int) int {
	switch o.Scheduler {
	case ScheduleDynamic:
		return 0
	case ScheduleStatic, ScheduleWorkStealing:
		return nb
	default:
		ns := int(math.Round(float64(nb) * (1 - o.DynamicRatio)))
		if ns < 0 {
			ns = 0
		}
		if ns > nb {
			ns = nb
		}
		return ns
	}
}

func (o Options) policy() sched.Policy {
	switch o.Scheduler {
	case ScheduleStatic:
		return sched.NewStatic()
	case ScheduleDynamic:
		return sched.NewDynamic()
	case ScheduleWorkStealing:
		return sched.NewWorkStealing(o.Seed)
	default:
		return sched.NewHybrid()
	}
}

// Factorization is the result of Factor: PA = LU with P encoded as a
// row permutation vector (Perm[i] is the original index of the row that
// ended up at position i).
type Factorization struct {
	Perm []int
	L    *mat.Dense // m x r unit lower triangular, r = min(m,n)
	U    *mat.Dense // r x n upper triangular
	// Makespan is the wall-clock factorization time.
	Makespan time.Duration
	// Counters carries the scheduler instrumentation.
	Counters sched.Counters
	// Stats summarizes the executed task graph.
	Stats dag.Stats
}

// Factor computes the CALU factorization of a (which is not modified)
// and returns PA = LU.
//
// Singular inputs degrade the same way ReferenceLU does: an exactly
// singular tournament chunk (duplicated or zero rows confined to one
// chunk of a panel) is absorbed by piv.Select's prefix fallback and the
// factorization completes normally, while a matrix whose panel is rank
// deficient as a whole — one plain GEPP would also abort on, such as an
// exactly zero column — returns an error rather than panicking (the
// runtime converts numerical-failure panics in tasks into errors).
func Factor(a *mat.Dense, opt Options) (*Factorization, error) {
	job, err := PrepareFactor(a, opt)
	if err != nil {
		return nil, err
	}
	res, err := rt.Run(job.Graph(), job.Policy(), rt.Options{
		Workers: job.Opt.Workers, Trace: job.Opt.Trace, Noise: job.Opt.Noise,
		GlobalLock: job.Opt.globalLock,
	})
	if err != nil {
		return nil, err
	}
	return job.Finish(res), nil
}

// FactorJob is a prepared factorization: the layout is allocated and
// the CALU task graph is built, but nothing has executed yet. It
// decouples graph construction from graph execution so a caller that
// owns its workers — the resident engine — can drive the graph through
// an rt.Executor instead of the spawn-per-call rt.Run. A FactorJob is
// single-use: its task closures mutate the layout in place.
type FactorJob struct {
	// Opt is the fully defaulted option set the job was built with.
	Opt Options
	cg  *dag.CALUGraph
}

// PrepareFactor builds the CALU graph for factoring a (which is not
// modified) under opt. The static distribution is built for
// opt.Workers owners; executing the graph with additional lending
// slots (rt.Options.Helpers) does not change the arithmetic, since the
// graph's dataflow fixes it completely.
func PrepareFactor(a *mat.Dense, opt Options) (*FactorJob, error) {
	opt.fill()
	grid := layout.NewGrid(opt.Workers)
	l := layout.New(opt.Layout, a, opt.Block, grid)
	_, nb := l.Blocks()
	cg := dag.BuildCALU(l, dag.CALUOptions{
		NstaticCols: opt.NstaticCols(nb),
		Group:       opt.Group,
	})
	if err := cg.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid CALU graph: %w", err)
	}
	return &FactorJob{Opt: opt, cg: cg}, nil
}

// Graph returns the task graph to execute.
func (j *FactorJob) Graph() *dag.Graph { return j.cg.Graph }

// Policy returns a fresh scheduling policy instance for this job.
func (j *FactorJob) Policy() sched.Policy { return j.Opt.policy() }

// Finish assembles the Factorization after the graph has executed to
// completion with the given runtime result.
func (j *FactorJob) Finish(res rt.Result) *Factorization {
	perm, lf, uf := dag.FinishLU(j.cg.Layout, j.cg.StepSwaps)
	return &Factorization{
		Perm:     perm,
		L:        lf,
		U:        uf,
		Makespan: res.Makespan,
		Counters: res.Counters,
		Stats:    j.cg.ComputeStats(),
	}
}

// Residual returns the normalized backward error
// ||PA - LU||_max / (||A||_max * n): the end-to-end correctness metric
// for a factorization. Values around machine epsilon times a modest
// growth factor indicate success.
func Residual(a *mat.Dense, f *Factorization) float64 {
	pa := mat.PermuteRows(a, f.Perm)
	lu := mat.MulNaive(f.L, f.U)
	denom := a.NormMax() * float64(max(a.Rows, a.Cols))
	if denom == 0 {
		denom = 1
	}
	return mat.MaxAbsDiff(pa, lu) / denom
}

// Solve solves A x = b for one right-hand side with scalar
// substitution: x = U^{-1} L^{-1} P b. A must have been square. It is
// the sequential oracle of the blocked multi-RHS path (SolveMany /
// PrepareSolve), which routes the same arithmetic through the packed
// kernels and the task runtime. A degraded factorization — a zero
// diagonal in U, the prefix-padded output of a factorization that
// absorbed singular chunks — yields a *SingularSolveError carrying the
// factored-prefix length.
func (f *Factorization) Solve(b []float64) ([]float64, error) {
	m := f.L.Rows
	n := f.U.Cols
	if m != n {
		return nil, fmt.Errorf("core: solve requires a square factorization, got %dx%d", m, n)
	}
	if len(b) != m {
		return nil, fmt.Errorf("core: rhs length %d != %d", len(b), m)
	}
	if p := diagPrefix(f.U); p < n {
		return nil, &SingularSolveError{Prefix: p, N: n}
	}
	// y = P b
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		y[i] = b[f.Perm[i]]
	}
	// Forward substitution with unit L.
	for j := 0; j < n; j++ {
		for i := j + 1; i < m; i++ {
			y[i] -= f.L.At(i, j) * y[j]
		}
	}
	// Back substitution with U (the diagonal was screened above).
	for j := n - 1; j >= 0; j-- {
		y[j] /= f.U.At(j, j)
		for i := 0; i < j; i++ {
			y[i] -= f.U.At(i, j) * y[j]
		}
	}
	return y, nil
}

// SolveResidual returns ||A x - b||_inf / (||A||_inf * ||x||_inf), the
// normalized residual of a solve.
func SolveResidual(a *mat.Dense, x, b []float64) float64 {
	m := a.Rows
	r := make([]float64, m)
	copy(r, b)
	for j := 0; j < a.Cols; j++ {
		xj := x[j]
		col := a.Col(j)
		for i := 0; i < m; i++ {
			r[i] -= col[i] * xj
		}
	}
	rn, xn := 0.0, 0.0
	for _, v := range r {
		rn = math.Max(rn, math.Abs(v))
	}
	for _, v := range x {
		xn = math.Max(xn, math.Abs(v))
	}
	denom := a.NormInf() * xn
	if denom == 0 {
		denom = 1
	}
	return rn / denom
}

// ReferenceLU is the sequential oracle: plain recursive GEPP on a dense
// copy, returning the same Factorization shape as Factor. Its panel
// work rides the same blocked register-tiled GETRF leaves as the CALU
// tasks, so oracle and subject share kernels. An exactly singular
// pivot column yields a *kernel.SingularError.
func ReferenceLU(a *mat.Dense) (*Factorization, error) {
	m, n := a.Rows, a.Cols
	// One block spanning the whole matrix: RecursiveLU applies its
	// swaps to full rows, so nothing is left for FinishLU to defer.
	l := layout.NewColMajor(a, max(m, n, 1), layout.Grid{PR: 1, PC: 1})
	pivots := make([]int, min(m, n))
	if err := kernel.RecursiveLU(l.Block(0, 0), pivots); err != nil {
		return nil, err
	}
	swaps := make([][2]int, len(pivots))
	for k, p := range pivots {
		swaps[k] = [2]int{k, p}
	}
	perm, lf, uf := dag.FinishLU(l, [][][2]int{swaps})
	return &Factorization{Perm: perm, L: lf, U: uf}, nil
}

// GrowthFactor returns ||U||_max / ||A||_max, the pivot-growth metric
// used to compare the stability of tournament pivoting against partial
// pivoting (section 2 claims they are comparable in practice).
func GrowthFactor(a *mat.Dense, f *Factorization) float64 {
	am := a.NormMax()
	if am == 0 {
		return 0
	}
	return f.U.NormMax() / am
}
