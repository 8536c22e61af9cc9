package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/trace"
)

// span is one interval the benchmark observed at a layer boundary.
// Times are seconds since the recorder's base. Parent is the ID of the
// span that caused it (0 for a root); spans of one routed request also
// share a Key (the factorization id).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Key    string  `json:"key,omitempty"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// at converts a wall-clock instant to recorder time.
func (r *recorder) at(t time.Time) float64 { return t.Sub(r.base).Seconds() }

// add records a span and returns its ID. A nil recorder records
// nothing, so untraced runs share the traced code path.
func (r *recorder) add(parent int64, layer, name, key string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Key: key,
		Start: r.at(start), End: r.at(end)})
	return id
}

// addTasks records every task span of a runtime trace as a child of
// parent, shifting the trace's run-relative times by runStart. The
// task label picks the layer: P is pivoting, everything else kernel.
func (r *recorder) addTasks(parent int64, tr *trace.Trace, runStart time.Time) {
	if r == nil || tr == nil {
		return
	}
	off := r.at(runStart)
	r.mu.Lock()
	defer r.mu.Unlock()
	for w, spans := range tr.Spans {
		for _, s := range spans {
			layer := "kernel"
			if s.Label == 'P' {
				layer = "piv"
			}
			r.spans = append(r.spans, span{ID: int64(len(r.spans) + 1), Parent: parent, Layer: layer,
				Name: string(s.Label) + "@w" + strconv.Itoa(w), Start: off + s.Start, End: off + s.End})
		}
	}
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// covered returns how much of [lo,hi] the union of ivs covers.
func covered(lo, hi float64, ivs [][2]float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, cur := 0.0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover.
func selfTimes(spans []span) map[int64]float64 {
	kids := map[int64][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := make(map[int64]float64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// layerSelf sums self time per layer. Layers whose spans run
// concurrently (task spans on several workers) sum to worker-seconds.
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}

// writeSpans writes the traced run's spans and per-layer self times to
// path as one JSON document.
func writeSpans(path, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfS    map[string]float64 `json:"layerSelfSeconds"`
		Spans    []span             `json:"spans"`
	}{workload, seed, layerSelf(spans), spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
