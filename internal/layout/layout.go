// Package layout implements the three matrix storage schemes studied in
// the paper (section 4):
//
//   - CM: the classic LAPACK column-major layout.
//   - BCL: the block cyclic layout — the matrix is partitioned into b x b
//     blocks, distributed over a 2D grid of P workers block-cyclically,
//     and each worker's blocks are stored contiguously as one
//     column-major submatrix. Adjacent owned block columns are
//     contiguous, which is what lets the update grow its BLAS-3 calls
//     (the paper's k=3 grouping).
//   - TwoLevel (2l-BL): a two-level block layout — the first level is the
//     same block-cyclic partitioning, the second level stores each b x b
//     block (tile) contiguously, so a tile fits in cache and any
//     operation on it incurs no extra memory transfer.
//
// Every layout exposes its blocks as kernel.View strided views, so the
// factorization kernels are layout-agnostic; what changes between
// layouts is physical adjacency — which internal/sim turns into cost.
package layout

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// Kind identifies a storage scheme.
type Kind int

const (
	// CM is the classic column-major layout (paper: "CM").
	CM Kind = iota
	// BCL is the block cyclic layout (paper: "BCL").
	BCL
	// TwoLevel is the two-level block layout (paper: "2l-BL").
	TwoLevel
)

// String returns the paper's abbreviation for the layout kind.
func (k Kind) String() string {
	switch k {
	case CM:
		return "CM"
	case BCL:
		return "BCL"
	case TwoLevel:
		return "2l-BL"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Grid is a 2D process/thread grid. Workers are numbered 0..PR*PC-1 and
// block (I,J) is owned by worker (I mod PR) + PR*(J mod PC), the
// classic 2D block-cyclic ownership the paper's static section uses.
type Grid struct {
	PR int // rows of the grid
	PC int // columns of the grid
}

// NewGrid returns the most-square grid for p workers: PR is the largest
// divisor of p not exceeding sqrt(p).
func NewGrid(p int) Grid {
	if p <= 0 {
		panic(fmt.Sprintf("layout: non-positive worker count %d", p))
	}
	pr := 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			pr = d
		}
	}
	return Grid{PR: pr, PC: p / pr}
}

// Workers returns the total worker count of the grid.
func (g Grid) Workers() int { return g.PR * g.PC }

// Owner returns the worker owning block (I,J).
func (g Grid) Owner(i, j int) int { return (i % g.PR) + g.PR*(j%g.PC) }

// Layout is the uniform interface over the three storage schemes.
type Layout interface {
	// Kind reports which scheme this is.
	Kind() Kind
	// Dims returns matrix rows, cols and the block size b.
	Dims() (m, n, b int)
	// Blocks returns the block-row and block-column counts (ceil division).
	Blocks() (mb, nb int)
	// Block returns a strided view of block (I,J); edge blocks are smaller.
	Block(i, j int) kernel.View
	// Owner returns the worker that owns block (I,J) under the grid.
	Owner(i, j int) int
	// Grid returns the worker grid used for ownership.
	Grid() Grid
	// SwapRows exchanges global rows r1 and r2 within block column jb only.
	// CALU applies panel pivoting lazily, one block column at a time.
	SwapRows(jb, r1, r2 int)
	// GroupWidth returns how many consecutive owned block columns starting
	// at block column j can be fused into one contiguous view for worker
	// Owner(i,j), at most maxGroup. Layouts that cannot group return 1.
	GroupWidth(i, j, maxGroup int) int
	// GroupedBlock returns a single view spanning `width` owned block
	// columns starting at (i,j) (stepping by the grid column period for
	// BCL). Only valid for width <= GroupWidth(i,j,width).
	GroupedBlock(i, j, width int) kernel.View
	// RowGroupWidth returns how many consecutive owned block rows
	// starting at block row i can be fused into one contiguous tall view
	// within block column j, at most maxGroup. This is the grouping the
	// paper uses for the trailing update ("blocks that share the same
	// columns", section 3): it enlarges the BLAS-3 calls without delaying
	// any other column's progress.
	RowGroupWidth(i, j, maxGroup int) int
	// GroupedRows returns one view stacking `width` owned block rows
	// starting at (i,j) (stepping by the grid row period for cyclic
	// layouts). Only valid for width <= RowGroupWidth(i,j,width).
	GroupedRows(i, j, width int) kernel.View
	// ToDense materializes the matrix as a plain column-major Dense.
	ToDense() *mat.Dense
}

// blockIndex gives the block coordinate and intra-block offset of a
// global row or column index.
func blockIndex(x, b int) (blk, off int) { return x / b, x % b }

// blockSpan returns the extent of block index i along a dimension of
// length ext with block size b.
func blockSpan(i, b, ext int) int {
	s := ext - i*b
	if s > b {
		s = b
	}
	return s
}

// numBlocks returns ceil(ext/b).
func numBlocks(ext, b int) int { return (ext + b - 1) / b }

// New creates a layout of the given kind holding a copy of src.
func New(kind Kind, src *mat.Dense, b int, g Grid) Layout {
	l := alloc(kind, src.Rows, src.Cols, b, g)
	pack(l, src)
	return l
}

// alloc returns a zero-filled m x n layout of the given kind.
func alloc(kind Kind, m, n, b int, g Grid) Layout {
	if b <= 0 {
		panic("layout: block size must be positive")
	}
	switch kind {
	case CM:
		return newColMajor(m, n, b, g)
	case BCL:
		return newBlockCyclic(m, n, b, g)
	case TwoLevel:
		return newTwoLevel(m, n, b, g)
	}
	panic(fmt.Sprintf("layout: unknown kind %d", int(kind)))
}

// colSegments calls f once per block that rows [i0, i1) of global
// column c cross, with that block's storage for rows [i, i+len(seg)).
// It is the bulk path every copy into or out of a layout takes: one
// copy per block column segment instead of one indexed access per
// element.
func colSegments(l Layout, c, i0, i1 int, f func(seg []float64, i int)) {
	_, _, b := l.Dims()
	jb, jj := blockIndex(c, b)
	for i := i0; i < i1; {
		ib, off := blockIndex(i, b)
		v := l.Block(ib, jb)
		nr := min(v.Rows-off, i1-i)
		p := jj*v.Stride + off
		f(v.Data[p:p+nr], i)
		i += nr
	}
}

// ReadCol copies rows [i0, i0+len(dst)) of global column c of l into
// dst without materializing the whole matrix.
func ReadCol(l Layout, dst []float64, c, i0 int) {
	colSegments(l, c, i0, i0+len(dst), func(seg []float64, i int) { copy(dst[i-i0:], seg) })
}

// pack copies src into the same-shaped layout l.
func pack(l Layout, src *mat.Dense) {
	for c := 0; c < src.Cols; c++ {
		col := src.Col(c)
		colSegments(l, c, 0, src.Rows, func(seg []float64, i int) { copy(seg, col[i:]) })
	}
}

// swapViaBlocks implements SwapRows generically on top of Block.
func swapViaBlocks(l Layout, jb, r1, r2 int) {
	if r1 == r2 {
		return
	}
	_, _, b := l.Dims()
	i1, o1 := blockIndex(r1, b)
	i2, o2 := blockIndex(r2, b)
	v1 := l.Block(i1, jb)
	v2 := l.Block(i2, jb)
	for j := 0; j < v1.Cols; j++ {
		p1 := j*v1.Stride + o1
		p2 := j*v2.Stride + o2
		v1.Data[p1], v2.Data[p2] = v2.Data[p2], v1.Data[p1]
	}
}

// toDenseViaBlocks implements ToDense generically on top of Block.
func toDenseViaBlocks(l Layout) *mat.Dense {
	m, n, _ := l.Dims()
	out := mat.New(m, n)
	for c := 0; c < n; c++ {
		ReadCol(l, out.Col(c), c, 0)
	}
	return out
}
