package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// loadResults reads every untraced result file in dir, grouped by
// workload and ordered by seed.
func loadResults(dir string) (map[string][]runResult, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*-trace0-seed*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]runResult{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r runResult
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	return out, nil
}

// verdict is the comparison of one end-to-end metric on one workload.
type verdict struct {
	oldMed, newMed       float64
	oldSpread, newSpread float64
	wins, pairs          int
	change               float64 // (new-old)/old, signed so positive is worse
	status               string
}

// judge compares old and new values of a metric. Pairs are taken in
// order (the callers pair runs by seed); a pair is won when new is
// strictly better. The status is "regression" or "improvement" when
// the medians differ by more than the bound, "unresolved" when either
// side's spread is wider than the bound, "same" otherwise; a change
// beyond the bound is still "unresolved" if the spreads are that wide,
// unless every new run beats (or loses to) every old run.
func judge(old, new []float64, def metricDef) verdict {
	v := verdict{oldMed: median(old), newMed: median(new), oldSpread: spread(old), newSpread: spread(new)}
	sign := 1.0
	if def.better == "higher" {
		sign = -1
	}
	for i := 0; i < len(old) && i < len(new); i++ {
		v.pairs++
		if sign*(new[i]-old[i]) < 0 {
			v.wins++
		}
	}
	if v.oldMed != 0 {
		v.change = sign * (v.newMed - v.oldMed) / math.Abs(v.oldMed)
	}
	separated := func(better bool) bool {
		for _, n := range new {
			for _, o := range old {
				if (sign*(n-o) < 0) != better || n == o {
					return false
				}
			}
		}
		return len(new) > 0 && len(old) > 0
	}
	wide := v.oldSpread > def.bound || v.newSpread > def.bound
	switch {
	case def.bound == 0:
		v.status = "same"
		if v.newMed != v.oldMed {
			v.status = "changed"
		}
	case v.change > def.bound && (!wide || separated(false)):
		v.status = "regression"
	case v.change < -def.bound && (!wide || separated(true)):
		v.status = "improvement"
	case wide:
		v.status = "unresolved"
	default:
		v.status = "same"
	}
	return v
}

// compareDirs prints, per workload and end-to-end metric, both sides'
// medians and quartile spreads, the pairs the new side won, and the
// verdict against the metric's bound.
func compareDirs(oldDir, newDir string, w io.Writer) error {
	olds, err := loadResults(oldDir)
	if err != nil {
		return err
	}
	news, err := loadResults(newDir)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(endToEndDefs))
	for n := range endToEndDefs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, wl := range workloads {
		o, n := olds[wl.name], news[wl.name]
		if len(o) == 0 || len(n) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s: %d old runs, %d new runs\n", wl.name, len(o), len(n))
		fmt.Fprintf(w, "  %-18s %12s %8s %12s %8s %7s %8s %6s  %s\n",
			"metric", "old median", "spread", "new median", "spread", "change", "won", "bound", "verdict")
		for _, name := range names {
			ov, nv := values(o, name), values(n, name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			def := endToEndDefs[name]
			v := judge(ov, nv, def)
			fmt.Fprintf(w, "  %-18s %12.5g %7.1f%% %12.5g %7.1f%% %+6.1f%% %4d/%-3d %5.0f%%  %s\n",
				name, v.oldMed, 100*v.oldSpread, v.newMed, 100*v.newSpread, 100*v.change,
				v.wins, v.pairs, 100*def.bound, v.status)
		}
	}
	return nil
}

func values(rs []runResult, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.EndToEnd[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
