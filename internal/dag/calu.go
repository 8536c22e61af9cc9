package dag

import (
	"fmt"
	"sync"

	"repro/internal/kernel"
	"repro/internal/layout"
	"repro/internal/mat"
	"repro/internal/piv"
)

// CALUOptions selects the scheduling split and block grouping used when
// building a CALU graph.
type CALUOptions struct {
	// NstaticCols is the number of leading block columns whose tasks are
	// scheduled statically (the paper's Nstatic = N*(1-dratio)). Zero
	// means fully dynamic; >= N means fully static.
	NstaticCols int
	// Group is the maximum number of owned block columns fused into one
	// S task (the paper's k, with k=3 in the experiments); values <= 1
	// disable grouping. Grouping is only applied where the layout
	// reports physical contiguity, so it is inert for 2l-BL.
	Group int
	// Chunks caps the number of tournament-tree leaves per panel; the
	// default (0) uses the grid's row count, mirroring the static
	// distribution where the owners of panel blocks run the P tasks.
	// At most one leaf on a one-row grid (PR=1) over CM or BCL means
	// the tournament is plain GEPP on the panel, so the panel is
	// factored in place instead (see BuildCALU); Chunks > 1 forces the
	// tournament.
	Chunks int
	// SimOnly skips the Run closures and pivot-state buffers, producing
	// a structure-and-cost-only graph for the simulator; such graphs can
	// model paper-scale matrices without allocating their data.
	SimOnly bool
}

// CALUGraph couples the task graph with the pivoting state the tasks
// fill in as they execute. Run closures mutate the layout in place, so
// a CALUGraph must be executed at most once in real mode; simulation
// does not touch the state and can replay the graph freely.
type CALUGraph struct {
	*Graph
	// Layout is the matrix storage being factored.
	Layout layout.Layout
	// StepSwaps[k] is the row-interchange sequence of panel step k,
	// recorded by the Final task — from the tournament winners, or from
	// the pivots of the in-place panel LU on a one-leaf grid; needed to
	// assemble the global permutation and to apply the deferred left
	// swaps (Algorithm 1, line 43).
	StepSwaps [][][2]int
	// PivCount[k] is the factored rank of panel k (= b except possibly
	// at the ragged last step).
	PivCount []int

	mu    sync.Mutex        // guards cands across the tournament tasks
	cands [][]piv.Candidate // per-step tournament slots; nil on a one-leaf grid
}

// BuildCALU constructs the CALU task dependency graph over the given
// layout. The graph realizes Algorithm 1 (hybrid static/dynamic CALU)
// as data: the runtime's scheduling policy decides the execution order
// within the dependency and static-ownership constraints.
//
// On a one-row grid (PR=1) with at most one leaf per panel, TSLU's
// tournament is plain GEPP on the whole panel, so where the panel is
// one contiguous view (CM, and BCL through GroupedRows) each step gets
// a single in-place panel task instead of the leaf, F and L tasks. The
// choice is made once per grid, never per step, so every step of a
// graph has the same shape.
func BuildCALU(l layout.Layout, opt CALUOptions) *CALUGraph {
	m, n, bsz := l.Dims()
	mb, nb := l.Blocks()
	grid := l.Grid()
	steps := min(mb, nb)
	group := opt.Group
	if group < 1 {
		group = 1
	}

	c := &caluBuild{
		builder: newBuilder(fmt.Sprintf("CALU(%s,Nstatic=%d,k=%d)", l.Kind(), opt.NstaticCols, group), grid.Workers()),
		l:       l,
		opt:     opt,
	}
	cg := &CALUGraph{
		Graph:     c.g,
		Layout:    l,
		StepSwaps: make([][][2]int, steps),
		PivCount:  make([]int, steps),
	}
	c.cg = cg
	panel := c.tsluPanel
	if opt.Chunks <= 1 && grid.PR == 1 && l.Kind() != layout.TwoLevel {
		panel = c.inPlacePanel
	} else {
		cg.cands = make([][]piv.Candidate, steps)
	}
	span := func(i, ext int) int { return blockSpanOf(i, bsz, ext) }

	for k := 0; k < steps; k++ {
		bw := span(k, n) // panel width
		pivCount := min(bw, m-k*bsz)
		cg.PivCount[k] = pivCount

		// fin factors the panel; lTasks[i] (nil map for an in-place
		// panel) finishes block row i of L.
		fin, lTasks := panel(k)

		// ---- U tasks, one per trailing block column: lazy right swap,
		// triangular solve, and (ragged case) update of the extra rows
		// living inside the diagonal block row.
		uTasks := make(map[int]*Task, nb-k-1)
		for j := k + 1; j < nb; j++ {
			cj := span(j, n)
			t := c.add(&Task{
				Kind: U, K: k, J: j,
				Owner:  l.Owner(k, j),
				Static: c.isStatic(j),
				Flops:  float64(pivCount) * float64(pivCount) * float64(cj),
				Bytes:  8 * (float64(span(k, m))*float64(cj) + float64(pivCount)*float64(pivCount)),
				Prio:   priority(j, k, U),
			})
			if !opt.SimOnly {
				t.Run = func() {
					for _, sw := range cg.StepSwaps[k] {
						l.SwapRows(j, sw[0], sw[1])
					}
					diag := l.Block(k, k)
					lkk := kernel.View{Rows: pivCount, Cols: pivCount, Stride: diag.Stride, Data: diag.Data}
					blk := l.Block(k, j)
					top := kernel.View{Rows: pivCount, Cols: blk.Cols, Stride: blk.Stride, Data: blk.Data}
					kernel.TrsmLowerLeftUnit(lkk, top)
					if blk.Rows > pivCount {
						// Ragged diagonal block row: its extra rows hold L
						// entries and must be updated like a trailing block.
						low := kernel.View{Rows: blk.Rows - pivCount, Cols: blk.Cols, Stride: blk.Stride, Data: blk.Data[pivCount:]}
						llow := kernel.View{Rows: blk.Rows - pivCount, Cols: pivCount, Stride: diag.Stride, Data: diag.Data[pivCount:]}
						kernel.Gemm(low, llow, top)
					}
				}
			}
			c.edge(fin, t)
			for i := k; i < mb; i++ {
				c.edge(c.updPrev[[2]int{i, j}], t)
			}
			uTasks[j] = t
		}

		// ---- S tasks: trailing update. Blocks that share the same column
		// and belong to the same owner are fused vertically into one
		// taller gemm where the layout is contiguous (the paper's k=3
		// grouping, section 3 — fusing along columns keeps every column's
		// progress independent, so the critical path is unaffected).
		updCur := make(map[[2]int]*Task)
		rowRuns := groupRows(l, k, mb, group)
		for j := k + 1; j < nb; j++ {
			cj := span(j, n)
			for _, run := range rowRuns {
				i0 := run[0]
				rows := runRows(l, i0, run[1])
				totalRows := 0
				for _, i := range rows {
					totalRows += span(i, m)
				}
				t := c.add(&Task{
					Kind: S, K: k, I: i0, J: j,
					Group:  rows,
					Owner:  l.Owner(i0, j),
					Static: c.isStatic(j),
					Flops:  2 * float64(totalRows) * float64(pivCount) * float64(cj),
					Bytes:  8 * (float64(totalRows)*float64(pivCount) + float64(pivCount)*float64(cj) + float64(totalRows)*float64(cj)),
					Prio:   priority(j, k, S),
				})
				if !opt.SimOnly {
					t.Run = func() {
						lv := l.GroupedRows(i0, k, run[1])
						a := kernel.View{Rows: lv.Rows, Cols: pivCount, Stride: lv.Stride, Data: lv.Data}
						ublk := l.Block(k, j)
						bt := kernel.View{Rows: pivCount, Cols: ublk.Cols, Stride: ublk.Stride, Data: ublk.Data}
						cv := l.GroupedRows(i0, j, run[1])
						kernel.Gemm(cv, a, bt)
					}
				}
				c.edge(uTasks[j], t)
				if lTasks == nil {
					c.edge(fin, t)
				}
				for _, i := range rows {
					c.edge(lTasks[i], t)
					updCur[[2]int{i, j}] = t
				}
			}
		}
		c.updPrev = updCur
	}
	return cg
}

// caluBuild is the state the per-step panel builders of BuildCALU
// share.
type caluBuild struct {
	*builder
	cg  *CALUGraph
	l   layout.Layout
	opt CALUOptions
	// updPrev maps (blockRow, blockCol) to the step-(k-1) S task that
	// last wrote the block; nil at step 0.
	updPrev map[[2]int]*Task
}

func (c *caluBuild) isStatic(col int) bool { return col < c.opt.NstaticCols }

// readsPanel orders t after the step-(k-1) S tasks that last wrote
// block rows [i0, i1) of panel column k.
func (c *caluBuild) readsPanel(t *Task, k, i0, i1 int) {
	for i := i0; i < i1; i++ {
		c.edge(c.updPrev[[2]int{i, k}], t)
	}
}

// inPlacePanel builds step k's one panel task for a one-leaf grid: GEPP
// on rows [k*b, m) of block column k, in place, recording the step's
// swaps. L is finished by the panel LU itself, so there are no L tasks.
func (c *caluBuild) inPlacePanel(k int) (*Task, map[int]*Task) {
	l := c.l
	m, n, bsz := l.Dims()
	mb, _ := l.Blocks()
	bw, base := blockSpanOf(k, bsz, n), k*bsz
	fin := c.add(&Task{
		Kind: Final, K: k,
		Owner:  l.Owner(k, k),
		Static: c.isStatic(k),
		Flops:  geppFlops(m-base, bw),
		Bytes:  16 * float64(m-base) * float64(bw),
		Prio:   priority(k, k, Final),
	})
	if !c.opt.SimOnly {
		cg := c.cg
		fin.Run = func() {
			cg.StepSwaps[k] = factorPanel(l.GroupedRows(k, k, mb-k), base, "CALU", k)
		}
	}
	c.readsPanel(fin, k, k, mb)
	return fin, nil
}

// tsluPanel builds step k's tournament: GEPP leaves over contiguous
// runs of block rows nominate candidates, a binary tree of combines
// picks the b pivot rows, F applies them to the panel and factors the
// pivot block, and one L task per block row below solves against U_kk.
func (c *caluBuild) tsluPanel(k int) (*Task, map[int]*Task) {
	l, cg, opt := c.l, c.cg, c.opt
	m, n, bsz := l.Dims()
	mb, _ := l.Blocks()
	bw, base := blockSpanOf(k, bsz, n), k*bsz
	chunksMax := opt.Chunks
	if chunksMax <= 0 {
		chunksMax = l.Grid().PR
	}

	// ---- Tournament tree: leaves over contiguous runs of block rows.
	chunkBlocks := splitBlocks(k, mb, min(chunksMax, mb-k))
	leafTasks := make([]*Task, len(chunkBlocks))
	if !opt.SimOnly {
		cg.cands[k] = make([]piv.Candidate, 0, 2*len(chunkBlocks))
	}
	nextSlot := 0
	newSlot := func() int {
		s := nextSlot
		nextSlot++
		if !opt.SimOnly {
			cg.cands[k] = append(cg.cands[k], piv.Candidate{})
		}
		return s
	}
	leafSlots := make([]int, len(chunkBlocks))
	for ci, blkRange := range chunkBlocks {
		i0, i1 := blkRange[0], blkRange[1]
		r0, r1 := i0*bsz, min(i1*bsz, m)
		s := newSlot()
		leafSlots[ci] = s
		t := c.add(&Task{
			Kind: PLeaf, K: k, I: ci,
			Owner:  l.Owner(i0, k),
			Static: c.isStatic(k),
			Flops:  geppFlops(r1-r0, bw),
			Bytes:  16 * float64(r1-r0) * float64(bw),
			Prio:   priority(k, k, PLeaf),
		})
		if !opt.SimOnly {
			t.Run = func() {
				vals := mat.New(r1-r0, bw)
				ids := make([]int, r1-r0)
				off := 0
				for i := i0; i < i1; i++ {
					blk := l.Block(i, k)
					dst := kernel.View{Rows: blk.Rows, Cols: bw, Stride: vals.Stride, Data: vals.Data[off:]}
					kernel.Copy(dst, kernel.View{Rows: blk.Rows, Cols: bw, Stride: blk.Stride, Data: blk.Data})
					for r := 0; r < blk.Rows; r++ {
						ids[off+r] = i*bsz + r
					}
					off += blk.Rows
				}
				// Select degrades gracefully on an exactly singular chunk
				// (prefix fallback), so an error here is a real defect,
				// not a property of the input; the runtime converts the
				// panic into a Factor error.
				cand, err := piv.Select(vals, ids, bw)
				if err != nil {
					panic(fmt.Sprintf("dag: TSLU leaf (step %d rows %d..%d): %v", k, r0, r1, err))
				}
				cg.mu.Lock()
				cg.cands[k][s] = cand
				cg.mu.Unlock()
			}
		}
		leafTasks[ci] = t
		// A leaf reads the panel blocks of its chunk, which were last
		// written by step k-1's S tasks.
		c.readsPanel(t, k, i0, i1)
	}

	// ---- Binary combine tree.
	curTasks, curSlots := leafTasks, leafSlots
	lvl := 0
	for len(curTasks) > 1 {
		lvl++
		nextTasks := make([]*Task, 0, (len(curTasks)+1)/2)
		nextSlots := make([]int, 0, (len(curTasks)+1)/2)
		for i := 0; i < len(curTasks); i += 2 {
			if i+1 == len(curTasks) {
				nextTasks = append(nextTasks, curTasks[i])
				nextSlots = append(nextSlots, curSlots[i])
				continue
			}
			s := newSlot()
			// GEPP on the stacked 2b x b candidates: ~ (5/3) b^3 flops.
			t := c.add(&Task{
				Kind: PCombine, K: k, I: lvl*1024 + i/2,
				Owner:  curTasks[i].Owner,
				Static: c.isStatic(k),
				Flops:  (5.0 / 3.0) * float64(bw) * float64(bw) * float64(bw),
				Bytes:  32 * float64(bw) * float64(bw),
				Prio:   priority(k, k, PCombine),
			})
			if !opt.SimOnly {
				sa, sb := curSlots[i], curSlots[i+1]
				t.Run = func() {
					cg.mu.Lock()
					ca, cb := cg.cands[k][sa], cg.cands[k][sb]
					cg.mu.Unlock()
					out, err := piv.Combine(ca, cb, bw)
					if err != nil {
						panic(fmt.Sprintf("dag: TSLU combine step %d: %v", k, err))
					}
					cg.mu.Lock()
					cg.cands[k][s] = out
					cg.mu.Unlock()
				}
			}
			c.edge(curTasks[i], t)
			c.edge(curTasks[i+1], t)
			nextTasks = append(nextTasks, t)
			nextSlots = append(nextSlots, s)
		}
		curTasks, curSlots = nextTasks, nextSlots
	}
	rootTask, rootSlot := curTasks[0], curSlots[0]

	// ---- Final: apply winning swaps to the panel column and factor
	// the pivot block (plus any ragged rows inside the diagonal block).
	fin := c.add(&Task{
		Kind: Final, K: k,
		Owner:  l.Owner(k, k),
		Static: c.isStatic(k),
		Flops:  (2.0 / 3.0) * float64(bw) * float64(bw) * float64(bw),
		Bytes:  8 * float64(blockSpanOf(k, bsz, m)) * float64(bw),
		Prio:   priority(k, k, Final),
	})
	if !opt.SimOnly {
		fin.Run = func() {
			cg.mu.Lock()
			winners := cg.cands[k][rootSlot].IDs
			cg.mu.Unlock()
			swaps := piv.Swaps(winners, base)
			cg.StepSwaps[k] = swaps
			for _, sw := range swaps {
				l.SwapRows(k, sw[0], sw[1])
			}
			// A zero diagonal here means the whole panel was rank
			// deficient — no pivot candidate anywhere could fill the
			// column — which is exactly when reference GEPP fails too.
			// The panic becomes a Factor error, matching ReferenceLU's
			// graceful error return.
			diag := l.Block(k, k)
			if err := kernel.GetrfNoPiv(kernel.View{Rows: diag.Rows, Cols: bw, Stride: diag.Stride, Data: diag.Data}); err != nil {
				panic(fmt.Sprintf("dag: pivot block factorization step %d: %v", k, err))
			}
		}
	}
	c.edge(rootTask, fin)

	// ---- L tasks, one per block row below the diagonal.
	lTasks := make(map[int]*Task, mb-k-1)
	for i := k + 1; i < mb; i++ {
		ri := blockSpanOf(i, bsz, m)
		t := c.add(&Task{
			Kind: L, K: k, I: i,
			Owner:  l.Owner(i, k),
			Static: c.isStatic(k),
			Flops:  float64(ri) * float64(bw) * float64(bw),
			Bytes:  8 * (float64(ri)*float64(bw) + float64(bw)*float64(bw)),
			Prio:   priority(k, k, L),
		})
		if !opt.SimOnly {
			t.Run = func() {
				diag := l.Block(k, k)
				ukk := kernel.View{Rows: bw, Cols: bw, Stride: diag.Stride, Data: diag.Data}
				blk := l.Block(i, k)
				kernel.TrsmUpperRight(ukk, kernel.View{Rows: blk.Rows, Cols: bw, Stride: blk.Stride, Data: blk.Data})
			}
		}
		c.edge(fin, t)
		lTasks[i] = t
	}
	return fin, lTasks
}

// geppFlops is the flop count of GEPP on an r x c panel:
// r*c^2 - c^3/3 for a tall panel, r^2*c - r^3/3 for a wide one.
func geppFlops(r, c int) float64 {
	p, q := float64(min(r, c)), float64(max(r, c))
	return q*p*p - p*p*p/3
}

// factorPanel factors the panel view pv, whose first row is global row
// base, in place with kernel.RecursiveLU and returns its row
// interchanges as global swaps. An exactly singular panel — one plain
// GEPP aborts on too — panics; the runtime turns the panic into a
// factorization error, matching ReferenceLU's error return.
func factorPanel(pv kernel.View, base int, alg string, k int) [][2]int {
	pivots := make([]int, min(pv.Rows, pv.Cols))
	if err := kernel.RecursiveLU(pv, pivots); err != nil {
		panic(fmt.Sprintf("dag: %s panel %d: %v", alg, k, err))
	}
	swaps := make([][2]int, 0, len(pivots))
	for t, p := range pivots {
		if p != t {
			swaps = append(swaps, [2]int{base + t, base + p})
		}
	}
	return swaps
}

// FinishLU assembles PA = LU from a layout factored in place by a CALU
// or GEPP graph and the per-step row interchanges steps[k] the graph
// recorded: perm[i] is the original row now at row i, L is the m x r
// unit lower trapezoid and U the r x n upper trapezoid, r = min(m,n).
//
// Step k's swaps still have to reach the finished block columns
// 0..k-1 (Algorithm 1, line 43: L <- Pi_N ... Pi_1 L). Instead of
// swapping them into the layout, the finisher reads through them: for
// block column j, the rows below its diagonal block row take the swaps
// of steps > j, which it composes into one row-source map. Everything
// else is a bulk column copy out of the block views, and the layout is
// left as the graph wrote it.
func FinishLU(l layout.Layout, steps [][][2]int) (perm []int, lf, uf *mat.Dense) {
	m, n, b := l.Dims()
	mb, nb := l.Blocks()
	r := min(m, n)
	perm = make([]int, m)
	src := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	for _, swaps := range steps {
		piv.ApplySwapsToPerm(perm, swaps)
	}
	lf, uf = mat.New(m, r), mat.New(r, n)
	views := make([]kernel.View, mb)
	// moved lists the rows whose source is not themselves, with the
	// block row and offset of that source.
	var moved [][3]int
	for j := 0; j < nb && j*b < r; j++ {
		// Rows [top, m) of block column j still lack the swaps of steps
		// > j. Those swaps only touch rows >= top, so the U part and the
		// top of L above it copy straight out of the layout.
		top := min((j+1)*b, m)
		for i := top; i < m; i++ {
			src[i] = i
		}
		for k := j + 1; k < len(steps); k++ {
			piv.ApplySwapsToPerm(src, steps[k])
		}
		moved = moved[:0]
		for i := top; i < m; i++ {
			if s := src[i]; s != i {
				moved = append(moved, [3]int{i, s / b, s % b})
			}
		}
		for i := range views {
			views[i] = l.Block(i, j)
		}
		for c := j * b; c < min((j+1)*b, r); c++ {
			layout.ReadCol(l, uf.Col(c)[:c+1], c, 0)
			lcol := lf.Col(c)
			lcol[c] = 1
			layout.ReadCol(l, lcol[c+1:], c, c+1)
			jj := c - j*b
			for _, mv := range moved {
				v := views[mv[1]]
				lcol[mv[0]] = v.Data[jj*v.Stride+mv[2]]
			}
		}
	}
	// Columns past r belong to U alone and took every swap in place.
	for c := r; c < n; c++ {
		layout.ReadCol(l, uf.Col(c), c, 0)
	}
	return perm, lf, uf
}

// blockSpanOf mirrors layout's internal block span helper.
func blockSpanOf(i, b, ext int) int {
	s := ext - i*b
	if s > b {
		s = b
	}
	return s
}

// splitBlocks partitions block rows [k, mb) into nchunks contiguous,
// non-empty runs, returned as half-open block-row ranges.
func splitBlocks(k, mb, nchunks int) [][2]int {
	total := mb - k
	if nchunks > total {
		nchunks = total
	}
	per, rem := total/nchunks, total%nchunks
	out := make([][2]int, 0, nchunks)
	start := k
	for c := 0; c < nchunks; c++ {
		sz := per
		if c < rem {
			sz++
		}
		out = append(out, [2]int{start, start + sz})
		start += sz
	}
	return out
}

// groupRows plans the S-task row grouping for step k: each run is
// (startRow, width) where width > 1 only if the layout is vertically
// contiguous across the run (owned block rows are adjacent in BCL and
// CM storage, never in 2l-BL). Grouping is a property of the storage,
// so the same runs apply under every scheduling strategy (section
// 5.1.1); the union of runs covers every trailing block row exactly
// once.
func groupRows(l layout.Layout, k, mb, group int) [][2]int {
	covered := make([]bool, mb)
	var runs [][2]int
	step := rowGroupStep(l)
	for i := k + 1; i < mb; i++ {
		if covered[i] {
			continue
		}
		w := 1
		if group > 1 {
			maxW := l.RowGroupWidth(i, k, group)
			for w < maxW {
				next := i + w*step
				if next >= mb || covered[next] {
					break
				}
				w++
			}
		}
		for x := 0; x < w; x++ {
			covered[i+x*step] = true
		}
		runs = append(runs, [2]int{i, w})
	}
	return runs
}

// rowGroupStep is the block-row stride between a worker's consecutive
// owned rows: the grid's PR for cyclic layouts, 1 for column major.
func rowGroupStep(l layout.Layout) int {
	if l.Kind() == layout.CM {
		return 1
	}
	return l.Grid().PR
}

// runRows expands a (start,width) run into the covered block rows.
func runRows(l layout.Layout, i0, w int) []int {
	if w == 1 {
		return []int{i0}
	}
	step := rowGroupStep(l)
	rows := make([]int, w)
	for i := range rows {
		rows[i] = i0 + i*step
	}
	return rows
}
