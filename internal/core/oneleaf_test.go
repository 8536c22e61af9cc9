package core

import (
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/layout"
	"repro/internal/mat"
)

// TestFactorOneLeafShapes factors square, tall, wide and ragged shapes
// on the one-row grids of 1, 2 and 3 workers, where every panel is
// factored in place. Every scheduler must produce the same bits, so the
// residual of the first one holds for all of them.
func TestFactorOneLeafShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, s := range [][2]int{{256, 256}, {257, 257}, {300, 200}, {200, 300}} {
		a := mat.Random(s[0], s[1], rng)
		for _, kind := range []layout.Kind{layout.CM, layout.BCL} {
			for _, w := range []int{1, 2, 3} {
				var first *Factorization
				factorAll(t, a, Options{Layout: kind, Block: 64, Workers: w}, func(sc Scheduler, f *Factorization, err error) {
					if err != nil {
						t.Fatalf("%v w=%d %v/%v: %v", kind, w, s, sc, err)
					}
					if n := f.Stats.ByKind[dag.PLeaf]; n != 0 {
						t.Errorf("%v w=%d %v: %d tournament leaves on a one-row grid", kind, w, s, n)
					}
					if first == nil {
						if r := Residual(a, f); r > tol {
							t.Errorf("%v w=%d %v/%v: residual %g", kind, w, s, sc, r)
						}
						first = f
						return
					}
					sameFactorization(t, kind.String()+"/"+sc.String(), f, first)
				})
			}
		}
	}
}

// TestFactorZeroPanelColumnOneLeaf: an exactly zero column met by an
// in-place panel (2 workers, one-row grid) fails the factorization
// with an error, as ReferenceLU does, instead of panicking.
func TestFactorZeroPanelColumnOneLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	a := mat.Random(48, 48, rng)
	for i := 0; i < 48; i++ {
		a.Set(i, 20, 0)
	}
	if _, err := ReferenceLU(a); err == nil {
		t.Fatal("reference factored a matrix with a zero column")
	}
	for _, kind := range []layout.Kind{layout.CM, layout.BCL} {
		factorAll(t, a, Options{Layout: kind, Block: 16, Workers: 2}, func(s Scheduler, f *Factorization, err error) {
			if err == nil {
				t.Fatalf("%v/%v: factored a matrix with a zero column", kind, s)
			}
		})
	}
}
