package layout

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

var allKinds = []Kind{CM, BCL, TwoLevel}

func TestNewGrid(t *testing.T) {
	cases := map[int][2]int{
		1:  {1, 1},
		2:  {1, 2},
		4:  {2, 2},
		6:  {2, 3},
		16: {4, 4},
		24: {4, 6},
		48: {6, 8},
		7:  {1, 7},
	}
	for p, want := range cases {
		g := NewGrid(p)
		if g.PR != want[0] || g.PC != want[1] {
			t.Errorf("NewGrid(%d) = %dx%d want %dx%d", p, g.PR, g.PC, want[0], want[1])
		}
		if g.Workers() != p {
			t.Errorf("NewGrid(%d).Workers() = %d", p, g.Workers())
		}
	}
}

func TestOwnerCyclic(t *testing.T) {
	g := Grid{PR: 2, PC: 3}
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			w := g.Owner(i, j)
			if w < 0 || w >= 6 {
				t.Fatalf("owner out of range: %d", w)
			}
			seen[w] = true
			if g.Owner(i+2, j) != w || g.Owner(i, j+3) != w {
				t.Fatal("ownership not cyclic")
			}
		}
	}
	if len(seen) != 6 {
		t.Fatalf("only %d owners used", len(seen))
	}
}

func TestRoundTripAllKindsAllShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][3]int{{8, 8, 4}, {9, 7, 4}, {16, 12, 4}, {5, 5, 8}, {30, 20, 7}, {12, 12, 3}}
	for _, kind := range allKinds {
		for _, s := range shapes {
			src := mat.Random(s[0], s[1], rng)
			l := New(kind, src, s[2], NewGrid(4))
			back := l.ToDense()
			if mat.MaxAbsDiff(src, back) != 0 {
				t.Errorf("%v round trip failed for shape %v", kind, s)
			}
		}
	}
}

// TestPackAndToDenseBitIdentical pins the bulk edges of every layout:
// New's packing lands each element in its block (checked element by
// element through the views), ToDense gives the input back bit for
// bit, and ReadCol returns any row range of any column. Empty shapes
// pack and materialize without touching storage.
func TestPackAndToDenseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	shapes := [][3]int{{97, 97, 16}, {130, 75, 16}, {75, 130, 16}, {64, 64, 16}, {40, 30, 64}, {1, 9, 4}, {0, 9, 4}, {9, 0, 4}}
	for _, kind := range allKinds {
		for _, p := range []int{1, 2, 4, 6} {
			for _, s := range shapes {
				src := mat.Random(s[0], s[1], rng)
				if s[0] > 0 && s[1] > 0 {
					src.Set(0, 0, math.Copysign(0, -1))
					src.Set(s[0]-1, s[1]-1, math.NaN())
				}
				l := New(kind, src, s[2], NewGrid(p))
				name := fmt.Sprintf("%v %dx%d b=%d p=%d", kind, s[0], s[1], s[2], p)
				mb, nb := l.Blocks()
				for bi := 0; bi < mb; bi++ {
					for bj := 0; bj < nb; bj++ {
						v := l.Block(bi, bj)
						for jj := 0; jj < v.Cols; jj++ {
							for ii := 0; ii < v.Rows; ii++ {
								if !sameBits(v.At(ii, jj), src.At(bi*s[2]+ii, bj*s[2]+jj)) {
									t.Fatalf("%s: block (%d,%d) element (%d,%d) not packed", name, bi, bj, ii, jj)
								}
							}
						}
					}
				}
				d := l.ToDense()
				for j := 0; j < s[1]; j++ {
					for i := 0; i < s[0]; i++ {
						if !sameBits(d.At(i, j), src.At(i, j)) {
							t.Fatalf("%s: ToDense (%d,%d) = %v want %v", name, i, j, d.At(i, j), src.At(i, j))
						}
					}
				}
				if d.Rows != s[0] || d.Cols != s[1] {
					t.Fatalf("%s: ToDense is %dx%d", name, d.Rows, d.Cols)
				}
				if s[1] == 0 {
					continue
				}
				c, i0 := s[1]/2, s[0]/3
				got := make([]float64, s[0]-i0)
				ReadCol(l, got, c, i0)
				for i, x := range got {
					if !sameBits(x, src.At(i0+i, c)) {
						t.Fatalf("%s: ReadCol(col %d, from %d)[%d] = %v", name, c, i0, i, x)
					}
				}
			}
		}
	}
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

func TestBlockViewsAliasStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := mat.Random(12, 12, rng)
	for _, kind := range allKinds {
		l := New(kind, src, 4, NewGrid(4))
		v := l.Block(1, 2)
		v.Set(0, 0, 123.5)
		if l.ToDense().At(4, 8) != 123.5 {
			t.Errorf("%v: block view does not alias storage", kind)
		}
	}
}

func TestEdgeBlockDims(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := mat.Random(10, 7, rng)
	for _, kind := range allKinds {
		l := New(kind, src, 4, NewGrid(2))
		mb, nb := l.Blocks()
		if mb != 3 || nb != 2 {
			t.Fatalf("%v: blocks = %dx%d want 3x2", kind, mb, nb)
		}
		v := l.Block(2, 1)
		if v.Rows != 2 || v.Cols != 3 {
			t.Errorf("%v: edge block %dx%d want 2x3", kind, v.Rows, v.Cols)
		}
	}
}

func TestSwapRowsWithinBlockColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := mat.Random(12, 12, rng)
	for _, kind := range allKinds {
		l := New(kind, src, 4, NewGrid(4))
		// Swap rows 1 and 9 (different block rows) in block column 1 only.
		l.SwapRows(1, 1, 9)
		got := l.ToDense()
		for j := 0; j < 12; j++ {
			wantTop, wantBot := src.At(1, j), src.At(9, j)
			if j >= 4 && j < 8 {
				wantTop, wantBot = wantBot, wantTop
			}
			if got.At(1, j) != wantTop || got.At(9, j) != wantBot {
				t.Errorf("%v: swap wrong at column %d", kind, j)
			}
		}
	}
}

func TestSwapSameRowNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := mat.Random(8, 8, rng)
	for _, kind := range allKinds {
		l := New(kind, src, 4, NewGrid(2))
		l.SwapRows(0, 3, 3)
		if mat.MaxAbsDiff(src, l.ToDense()) != 0 {
			t.Errorf("%v: same-row swap changed data", kind)
		}
	}
}

func TestBCLGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src := mat.Random(16, 24, rng)
	g := NewGrid(4) // 2x2
	l := NewBlockCyclic(src, 4, g)
	// Worker of block (0,0) owns block columns 0,2,4 (PC=2).
	if w := l.GroupWidth(0, 0, 3); w != 3 {
		t.Fatalf("group width = %d want 3", w)
	}
	v := l.GroupedBlock(0, 0, 3)
	if v.Rows != 4 || v.Cols != 12 {
		t.Fatalf("grouped view %dx%d want 4x12", v.Rows, v.Cols)
	}
	// Columns of the grouped view must be block cols 0, 2, 4 in order.
	for w := 0; w < 3; w++ {
		for jj := 0; jj < 4; jj++ {
			for ii := 0; ii < 4; ii++ {
				want := src.At(ii, (2*w)*4+jj)
				if got := v.At(ii, w*4+jj); got != want {
					t.Fatalf("grouped view wrong at group %d (%d,%d): got %g want %g", w, ii, jj, got, want)
				}
			}
		}
	}
}

func TestBCLGroupWidthStopsAtEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := mat.Random(8, 12, rng) // 3 block columns with b=4
	l := NewBlockCyclic(src, 4, NewGrid(4))
	// Owner of (0,1) owns block columns 1 only (PC=2 -> next would be 3 >= nb).
	if w := l.GroupWidth(0, 1, 3); w != 1 {
		t.Fatalf("edge group width = %d want 1", w)
	}
}

func TestTwoLevelCannotGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewTwoLevel(mat.Random(8, 16, rng), 4, NewGrid(2))
	if w := l.GroupWidth(0, 0, 3); w != 1 {
		t.Fatalf("2l-BL group width = %d want 1", w)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 2l-BL grouped width > 1")
		}
	}()
	l.GroupedBlock(0, 0, 2)
}

func TestTwoLevelTilesContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewTwoLevel(mat.Random(8, 8, rng), 4, NewGrid(2))
	v := l.Block(1, 1)
	if v.Stride != v.Rows {
		t.Fatalf("tile stride %d != rows %d: not contiguous", v.Stride, v.Rows)
	}
	if len(v.Data) < v.Rows*v.Cols {
		t.Fatal("tile slice too short")
	}
}

func TestCMGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	src := mat.Random(8, 16, rng)
	l := NewColMajor(src, 4, NewGrid(2))
	if w := l.GroupWidth(0, 1, 3); w != 3 {
		t.Fatalf("CM group width = %d want 3", w)
	}
	v := l.GroupedBlock(1, 1, 3)
	if v.Rows != 4 || v.Cols != 12 {
		t.Fatalf("CM grouped view %dx%d", v.Rows, v.Cols)
	}
	if v.At(0, 0) != src.At(4, 4) {
		t.Fatal("CM grouped view offset wrong")
	}
}

func TestKindString(t *testing.T) {
	if CM.String() != "CM" || BCL.String() != "BCL" || TwoLevel.String() != "2l-BL" {
		t.Fatal("kind names must match the paper")
	}
}

// Property: for any layout kind, shape and grid, writing through block
// views and reading back through ToDense preserves every element.
func TestBlockWriteReadProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 4 + int(rng.Int31n(20))
		n := 4 + int(rng.Int31n(20))
		b := 2 + int(rng.Int31n(5))
		p := 1 + int(rng.Int31n(6))
		kind := allKinds[rng.Intn(len(allKinds))]
		src := mat.Random(m, n, rng)
		l := New(kind, src, b, NewGrid(p))
		mb, nb := l.Blocks()
		// Overwrite every element via block views with i*1000+j.
		for bi := 0; bi < mb; bi++ {
			for bj := 0; bj < nb; bj++ {
				v := l.Block(bi, bj)
				for jj := 0; jj < v.Cols; jj++ {
					for ii := 0; ii < v.Rows; ii++ {
						v.Set(ii, jj, float64((bi*b+ii)*1000+bj*b+jj))
					}
				}
			}
		}
		d := l.ToDense()
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				if d.At(i, j) != float64(i*1000+j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: SwapRows on a block column is an involution.
func TestSwapInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 6 + int(rng.Int31n(20))
		n := 6 + int(rng.Int31n(20))
		b := 2 + int(rng.Int31n(4))
		kind := allKinds[rng.Intn(len(allKinds))]
		src := mat.Random(m, n, rng)
		l := New(kind, src, b, NewGrid(1+int(rng.Int31n(5))))
		_, nb := l.Blocks()
		jb := int(rng.Int31n(int32(nb)))
		r1 := int(rng.Int31n(int32(m)))
		r2 := int(rng.Int31n(int32(m)))
		l.SwapRows(jb, r1, r2)
		l.SwapRows(jb, r1, r2)
		return mat.MaxAbsDiff(src, l.ToDense()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBCLRowGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	src := mat.Random(24, 16, rng)
	g := NewGrid(4) // 2x2: PR=2
	l := NewBlockCyclic(src, 4, g)
	// Worker of block (0,0) owns block rows 0,2,4 (PR=2).
	if w := l.RowGroupWidth(0, 0, 3); w != 3 {
		t.Fatalf("row group width = %d want 3", w)
	}
	v := l.GroupedRows(0, 0, 3)
	if v.Rows != 12 || v.Cols != 4 {
		t.Fatalf("grouped rows view %dx%d want 12x4", v.Rows, v.Cols)
	}
	// Rows of the view must be block rows 0, 2, 4 in order.
	for w := 0; w < 3; w++ {
		for ii := 0; ii < 4; ii++ {
			for jj := 0; jj < 4; jj++ {
				want := src.At((2*w)*4+ii, jj)
				if got := v.At(w*4+ii, jj); got != want {
					t.Fatalf("grouped rows wrong at group %d (%d,%d): got %g want %g", w, ii, jj, got, want)
				}
			}
		}
	}
}

func TestCMRowGroupingFullColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	src := mat.Random(20, 8, rng)
	l := NewColMajor(src, 4, NewGrid(2))
	// CM can fuse the whole column: 5 block rows.
	if w := l.RowGroupWidth(0, 1, 100); w != 5 {
		t.Fatalf("CM row group width = %d want 5", w)
	}
	v := l.GroupedRows(1, 1, 4)
	if v.Rows != 16 || v.Cols != 4 {
		t.Fatalf("CM grouped rows %dx%d want 16x4", v.Rows, v.Cols)
	}
	if v.At(0, 0) != src.At(4, 4) {
		t.Fatal("CM grouped rows offset wrong")
	}
}

func TestTwoLevelCannotGroupRows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	l := NewTwoLevel(mat.Random(16, 8, rng), 4, NewGrid(2))
	if w := l.RowGroupWidth(0, 0, 3); w != 1 {
		t.Fatalf("2l-BL row group width = %d want 1", w)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 2l-BL row group width > 1")
		}
	}()
	l.GroupedRows(0, 0, 2)
}

func TestBCLGroupedRowsRagged(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	src := mat.Random(18, 8, rng) // last block row has 2 rows (b=4)
	l := NewBlockCyclic(src, 4, NewGrid(1))
	// Single worker owns everything; rows 3 and 4 are consecutive owned.
	v := l.GroupedRows(3, 0, 2)
	if v.Rows != 6 { // 4 + 2 ragged
		t.Fatalf("ragged grouped rows = %d want 6", v.Rows)
	}
	if v.At(5, 0) != src.At(17, 0) {
		t.Fatal("ragged grouped rows content wrong")
	}
}
