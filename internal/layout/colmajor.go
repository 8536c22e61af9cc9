package layout

import (
	"repro/internal/kernel"
	"repro/internal/mat"
)

// ColMajor stores the whole matrix in a single column-major array, the
// classic LAPACK/ScaLAPACK layout. The paper evaluates it only under
// fully dynamic scheduling (Table 1, "dynamic rectangular") because it
// provides no per-worker contiguity for the static section.
type ColMajor struct {
	m, n, b int
	grid    Grid
	a       *mat.Dense
}

// NewColMajor copies src into a column-major layout with block size b.
func NewColMajor(src *mat.Dense, b int, g Grid) *ColMajor {
	return New(CM, src, b, g).(*ColMajor)
}

// newColMajor allocates a zero m x n column-major layout.
func newColMajor(m, n, b int, g Grid) *ColMajor {
	return &ColMajor{m: m, n: n, b: b, grid: g, a: mat.New(m, n)}
}

// Kind reports CM.
func (l *ColMajor) Kind() Kind { return CM }

// Dims returns rows, cols and block size.
func (l *ColMajor) Dims() (int, int, int) { return l.m, l.n, l.b }

// Blocks returns the block grid extents.
func (l *ColMajor) Blocks() (int, int) { return numBlocks(l.m, l.b), numBlocks(l.n, l.b) }

// Grid returns the worker grid.
func (l *ColMajor) Grid() Grid { return l.grid }

// Owner returns the block-cyclic owner of block (i,j); ownership is
// logical only for CM, used by the schedulers' locality accounting.
func (l *ColMajor) Owner(i, j int) int { return l.grid.Owner(i, j) }

// Block returns the view of block (i,j) with the full-matrix stride.
func (l *ColMajor) Block(i, j int) kernel.View {
	r := blockSpan(i, l.b, l.m)
	c := blockSpan(j, l.b, l.n)
	return kernel.View{
		Rows:   r,
		Cols:   c,
		Stride: l.a.Stride,
		Data:   l.a.Data[j*l.b*l.a.Stride+i*l.b:],
	}
}

// SwapRows exchanges global rows r1, r2 within block column jb.
func (l *ColMajor) SwapRows(jb, r1, r2 int) {
	j0 := jb * l.b
	j1 := j0 + blockSpan(jb, l.b, l.n)
	l.a.SwapRows(r1, r2, j0, j1)
}

// GroupWidth reports how many block columns starting at j are
// physically contiguous; for column major every adjacent block column
// is contiguous, so the only limits are the matrix edge and maxGroup.
// (The paper only exploits grouping for BCL, but the capability is a
// property of the storage, so CM reports it truthfully.)
func (l *ColMajor) GroupWidth(i, j, maxGroup int) int {
	_, nb := l.Blocks()
	w := 1
	for w < maxGroup && j+w < nb {
		w++
	}
	return w
}

// GroupedBlock returns one view covering block (i,j..j+width-1).
func (l *ColMajor) GroupedBlock(i, j, width int) kernel.View {
	r := blockSpan(i, l.b, l.m)
	cols := 0
	for w := 0; w < width; w++ {
		cols += blockSpan(j+w, l.b, l.n)
	}
	return kernel.View{
		Rows:   r,
		Cols:   cols,
		Stride: l.a.Stride,
		Data:   l.a.Data[j*l.b*l.a.Stride+i*l.b:],
	}
}

// ToDense returns a copy of the matrix contents.
func (l *ColMajor) ToDense() *mat.Dense { return l.a.Clone() }

// RowGroupWidth reports how many block rows starting at i are
// physically contiguous in column major storage: all of them, up to the
// matrix edge and maxGroup.
func (l *ColMajor) RowGroupWidth(i, j, maxGroup int) int {
	mb, _ := l.Blocks()
	w := 1
	for w < maxGroup && i+w < mb {
		w++
	}
	return w
}

// GroupedRows returns one view covering blocks (i..i+width-1, j).
func (l *ColMajor) GroupedRows(i, j, width int) kernel.View {
	rows := 0
	for w := 0; w < width; w++ {
		rows += blockSpan(i+w, l.b, l.m)
	}
	return kernel.View{
		Rows:   rows,
		Cols:   blockSpan(j, l.b, l.n),
		Stride: l.a.Stride,
		Data:   l.a.Data[j*l.b*l.a.Stride+i*l.b:],
	}
}
