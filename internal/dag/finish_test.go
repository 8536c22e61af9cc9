package dag_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/layout"
	"repro/internal/mat"
	"repro/internal/piv"
	"repro/internal/rt"
	"repro/internal/sched"
)

// finishOracle is the element-wise finishing path FinishLU replaced,
// kept as its reference: swap the deferred left interchanges into the
// layout in place (Algorithm 1, line 43), materialize the layout one
// element at a time through its block views, then split L and U element
// by element. It mutates l.
func finishOracle(l layout.Layout, steps [][][2]int) ([]int, *mat.Dense, *mat.Dense) {
	m, n, b := l.Dims()
	perm := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	for k, swaps := range steps {
		piv.ApplySwapsToPerm(perm, swaps)
		for j := 0; j < k; j++ {
			for _, sw := range swaps {
				l.SwapRows(j, sw[0], sw[1])
			}
		}
	}
	d := mat.New(m, n)
	mb, nb := l.Blocks()
	for i := 0; i < mb; i++ {
		for j := 0; j < nb; j++ {
			v := l.Block(i, j)
			for jj := 0; jj < v.Cols; jj++ {
				for ii := 0; ii < v.Rows; ii++ {
					d.Set(i*b+ii, j*b+jj, v.Data[jj*v.Stride+ii])
				}
			}
		}
	}
	r := min(m, n)
	lf, uf := mat.New(m, r), mat.New(r, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			x := d.At(i, j)
			if i > j && j < r {
				lf.Set(i, j, x)
			}
			if i <= j && i < r {
				uf.Set(i, j, x)
			}
		}
	}
	for i := 0; i < r; i++ {
		lf.Set(i, i, 1)
	}
	return perm, lf, uf
}

func sameBits(a, b *mat.Dense) error {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return fmt.Errorf("shape %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			if x, y := a.At(i, j), b.At(i, j); math.Float64bits(x) != math.Float64bits(y) {
				return fmt.Errorf("(%d,%d): %v vs %v", i, j, x, y)
			}
		}
	}
	return nil
}

func samePerm(a, b []int) error {
	if len(a) != len(b) {
		return fmt.Errorf("perm length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("perm[%d] = %d vs %d", i, a[i], b[i])
		}
	}
	return nil
}

// checkFinish finishes a factored layout twice with FinishLU — the
// second call pins that the finisher leaves the layout untouched — and
// then once with the oracle, and requires all three bit-identical.
func checkFinish(t *testing.T, name string, l layout.Layout, steps [][][2]int) {
	t.Helper()
	p1, l1, u1 := dag.FinishLU(l, steps)
	p2, l2, u2 := dag.FinishLU(l, steps)
	po, lo, uo := finishOracle(l, steps)
	for _, c := range []struct {
		what string
		err  error
	}{
		{"perm", samePerm(p1, po)}, {"L", sameBits(l1, lo)}, {"U", sameBits(u1, uo)},
		{"second perm", samePerm(p2, p1)}, {"second L", sameBits(l2, l1)}, {"second U", sameBits(u2, u1)},
	} {
		if c.err != nil {
			t.Errorf("%s: %s differs from the oracle: %v", name, c.what, c.err)
		}
	}
}

// finishShapes covers a ragged square, tall (m > n) and wide (m < n)
// shapes, an evenly blocked square and a block larger than the matrix.
var finishShapes = []struct{ m, n, b int }{
	{97, 97, 16}, {130, 75, 16}, {75, 130, 16}, {64, 64, 16}, {40, 30, 64},
}

func TestFinishLUMatchesOracleCALU(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, kind := range []layout.Kind{layout.CM, layout.BCL, layout.TwoLevel} {
		for _, p := range []int{1, 2, 4, 6} {
			for _, s := range finishShapes {
				l := layout.New(kind, mat.Random(s.m, s.n, rng), s.b, layout.NewGrid(p))
				_, nb := l.Blocks()
				cg := dag.BuildCALU(l, dag.CALUOptions{NstaticCols: nb / 2, Group: 3})
				if _, err := rt.Run(cg.Graph, sched.NewHybrid(), rt.Options{Workers: p}); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("CALU %v %dx%d b=%d p=%d", kind, s.m, s.n, s.b, p)
				checkFinish(t, name, l, cg.StepSwaps)
			}
		}
	}
}

func TestFinishLUMatchesOracleGEPP(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, p := range []int{1, 2, 4} {
		for _, s := range finishShapes {
			l := layout.NewColMajor(mat.Random(s.m, s.n, rng), s.b, layout.NewGrid(p))
			gg := dag.BuildGEPP(l, dag.GEPPOptions{})
			if _, err := rt.Run(gg.Graph, sched.NewDynamic(), rt.Options{Workers: p}); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("GEPP %dx%d b=%d p=%d", s.m, s.n, s.b, p)
			checkFinish(t, name, l, gg.StepSwaps)
		}
	}
}
