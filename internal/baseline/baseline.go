// Package baseline implements the two library comparison points of the
// paper's section 5.3:
//
//   - FactorGEPP: blocked LU with partial pivoting and a *sequential*
//     panel factorization — structurally the multithreaded
//     LAPACK/MKL-10.3-era dgetrf whose panel sits on the critical path
//     (the reason CALU beats MKL by up to 110% on 48 cores).
//   - SolveIncPiv: tiled LU with incremental pivoting — structurally
//     PLASMA 2.3's dgetrf_incpiv, which removes the panel from the
//     critical path but pays extra update flops and a weaker pivoting
//     scheme (the stability caveat the paper cites).
//
// Both baselines execute for real on actual data (used by tests and
// examples) and both expose simulation-only graph builders used by the
// Figure 16/17 experiments.
package baseline

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/layout"
	"repro/internal/mat"
	"repro/internal/rt"
	"repro/internal/sched"
)

// GEPPOptions configures the MKL-style baseline.
type GEPPOptions struct {
	// Block is the panel width (default 32).
	Block int
	// Workers is the goroutine count (default 1).
	Workers int
	// Lookahead enables panel look-ahead (off for the MKL comparison
	// point; on for ablations).
	Lookahead bool
}

// FactorGEPP computes PA = LU with classic blocked Gaussian elimination
// with partial pivoting on a column-major copy of a.
func FactorGEPP(a *mat.Dense, opt GEPPOptions) (*core.Factorization, error) {
	if opt.Block <= 0 {
		opt.Block = 32
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	grid := layout.NewGrid(opt.Workers)
	l := layout.NewColMajor(a, opt.Block, grid)
	gg := dag.BuildGEPP(l, dag.GEPPOptions{Lookahead: opt.Lookahead})
	if err := gg.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: invalid GEPP graph: %w", err)
	}
	res, err := rt.Run(gg.Graph, sched.NewDynamic(), rt.Options{Workers: opt.Workers})
	if err != nil {
		return nil, err
	}
	perm, lf, uf := dag.FinishLU(l, gg.StepSwaps)
	return &core.Factorization{
		Perm:     perm,
		L:        lf,
		U:        uf,
		Makespan: res.Makespan,
		Counters: res.Counters,
		Stats:    gg.ComputeStats(),
	}, nil
}

// IncPivOptions configures the PLASMA-style baseline.
type IncPivOptions struct {
	// Block is the tile size (default 32).
	Block int
	// Workers is the goroutine count (default 1).
	Workers int
}

// IncPivSolver holds a factored system under incremental pivoting. The
// transformations of incremental pivoting interleave across tiles, so
// unlike GEPP the factorization is not exposed as an explicit (P, L, U)
// triple; it is applied to right-hand sides carried through the same
// task pipeline.
type IncPivSolver struct {
	n    int
	u    *mat.Dense // the upper triangular factor
	x    []float64  // transformed rhs (L^{-1}-applied)
	Time time.Duration
	// Stats summarizes the executed task graph.
	Stats dag.Stats
}

// SolveIncPiv factors [A | b] with tiled incremental-pivoting LU and
// returns the solution of A x = b. The right-hand side is appended as
// an extra tile column so every GESSM/SSSSM transformation applies to
// it exactly as PLASMA's dgetrs_incpiv would.
func SolveIncPiv(a *mat.Dense, b []float64, opt IncPivOptions) ([]float64, *IncPivSolver, error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("baseline: incpiv solve requires square A, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return nil, nil, fmt.Errorf("baseline: rhs length %d != %d", len(b), a.Rows)
	}
	if opt.Block <= 0 {
		opt.Block = 32
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	n := a.Rows
	aug := mat.New(n, n+1)
	aug.Slice(0, n, 0, n).CopyFrom(a)
	for i, v := range b {
		aug.Set(i, n, v)
	}
	grid := layout.NewGrid(opt.Workers)
	l := layout.NewTwoLevel(aug, opt.Block, grid)
	ig := dag.BuildIncPiv(l)
	if err := ig.Validate(); err != nil {
		return nil, nil, fmt.Errorf("baseline: invalid incpiv graph: %w", err)
	}
	res, err := rt.Run(ig.Graph, sched.NewDynamic(), rt.Options{Workers: opt.Workers})
	if err != nil {
		return nil, nil, err
	}
	d := l.ToDense()
	solver := &IncPivSolver{n: n, u: d, Time: res.Makespan, Stats: ig.ComputeStats()}
	solver.x = make([]float64, n)
	for i := 0; i < n; i++ {
		solver.x[i] = d.At(i, n)
	}
	x := make([]float64, n)
	copy(x, solver.x)
	// Back substitution with the upper triangular factor.
	for j := n - 1; j >= 0; j-- {
		ujj := d.At(j, j)
		if ujj == 0 {
			return nil, nil, fmt.Errorf("baseline: incpiv singular U at %d", j)
		}
		x[j] /= ujj
		for i := 0; i < j; i++ {
			x[i] -= d.At(i, j) * x[j]
		}
	}
	return x, solver, nil
}
