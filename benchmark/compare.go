package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readSet(path string) (ResultSet, error) {
	var s ResultSet
	blob, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(blob, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// series collects a metric's values over the untraced runs of a workload,
// in file order, keyed by workload then metric.
func series(s ResultSet) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range s.Runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

// compareFiles applies the end-to-end bounds to a parent and a change result
// set, one row per workload and metric, and returns the exit code: 1 when a
// median got worse by more than its bound or an op failed, else 0. A row
// whose parent runs spread wider than the bound is unresolved, not passed.
// One bound serves five workloads of very different steadiness, so a row is
// also marked suspect, without failing, when the change is worse by more
// than this workload's own spread and loses nine pairs in ten.
func compareFiles(parentPath, changePath string) int {
	parent, err := readSet(parentPath)
	if err != nil {
		fatal(err)
	}
	change, err := readSet(changePath)
	if err != nil {
		fatal(err)
	}
	if parent.Seconds != change.Seconds {
		fatal(fmt.Errorf("run lengths differ: %d s and %d s", parent.Seconds, change.Seconds))
	}
	code := 0
	for _, set := range []ResultSet{parent, change} {
		for _, r := range set.Runs {
			if r.Failed > 0 || !r.Correct {
				fmt.Printf("FAILED OPS  %s seed %d: %d of %d failed, correct=%v\n", r.Workload, r.Seed, r.Failed, r.Attempted, r.Correct)
				code = 1
			}
		}
	}
	ps, cs := series(parent), series(change)
	fmt.Printf("%-14s %-15s %13s %13s %8s %8s %7s %6s  %s\n",
		"workload", "metric", "parent p50", "change p50", "worse", "bound", "spread", "won", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			p, c := ps[w.Name][d.Name], cs[w.Name][d.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			pm, cm := median(p), median(c)
			worse := ratio(cm-pm, pm)
			if d.Better == "higher" {
				worse = -worse
			}
			q1, q3 := quartiles(p)
			spread := ratio(q3-q1, pm)
			won, pairs := 0, min(len(p), len(c))
			for i := 0; i < pairs; i++ {
				if (d.Better == "lower" && c[i] < p[i]) || (d.Better == "higher" && c[i] > p[i]) {
					won++
				}
			}
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "REGRESSION"
				code = 1
			case spread > d.Bound:
				verdict = "unresolved"
			case worse > spread && won*10 <= pairs:
				verdict = "suspect"
			}
			fmt.Printf("%-14s %-15s %13.6g %13.6g %+7.2f%% %7.2f%% %6.2f%% %3d/%-2d  %s\n",
				w.Name, d.Name, pm, cm, 100*worse, 100*d.Bound, 100*spread, won, pairs, verdict)
		}
	}
	return code
}
