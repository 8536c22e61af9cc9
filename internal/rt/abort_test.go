package rt

import (
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/kernel"
	"repro/internal/sched"
)

// TestAbortReleasesReservation pins the release-on-abort contract of
// the executor: when a task panics mid-run, Run returns the panic as
// its error and Wait still releases the run's kernel.Reserve
// reservation, so the pool-wide reserved-slot sum returns to baseline.
//
// The graph is a three-task chain: t0 runs, t1 panics, and t2 never
// runs.
func TestAbortReleasesReservation(t *testing.T) {
	base := kernel.ReservedSlots()

	ran := [3]bool{}
	g := &dag.Graph{Name: "abort", Workers: 1}
	t0 := &dag.Task{ID: 0, Kind: dag.S, Run: func() { ran[0] = true }}
	t1 := &dag.Task{ID: 1, Kind: dag.S, NumDeps: 1, Run: func() { panic("injected numerical failure") }}
	t2 := &dag.Task{ID: 2, Kind: dag.S, NumDeps: 1, Run: func() { ran[2] = true }}
	t0.Outs = []int32{t1.ID}
	t1.Outs = []int32{t2.ID}
	g.Tasks = []*dag.Task{t0, t1, t2}

	_, err := Run(g, sched.NewDynamic(), Options{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "injected numerical failure") {
		t.Fatalf("Run error = %v, want the injected task panic", err)
	}
	if !ran[0] || ran[2] {
		t.Fatalf("ran = %v, want t0 run and t2 skipped", ran)
	}
	if got := kernel.ReservedSlots(); got != base {
		t.Fatalf("ReservedSlots = %d after aborted run, want baseline %d: workspace reservation leaked", got, base)
	}
}
