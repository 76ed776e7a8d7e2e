package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs
// as Python's statistics.quantiles(xs, n=4) defines them (exclusive
// method), so a spread computed here matches the pipeline's.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based rank
		lo := int(pos)
		if lo < 1 {
			lo = 1
		}
		if lo > len(s)-1 {
			lo = len(s) - 1
		}
		return s[lo-1] + (s[lo]-s[lo-1])*(pos-float64(lo))
	}
	return at(1), at(2), at(3)
}

func readResults(path string) (resultsFile, error) {
	var rf resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// values collects, per workload and metric, the end-to-end values of a
// results file's untraced runs.
func (rf resultsFile) values() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rf.Runs {
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// compareFiles prints, per workload and end-to-end metric, both sets'
// medians and quartiles, how much worse B is than A as a share of A's
// median, the metric's bound, and a verdict:
//
//	ok          B's median is not worse than A's by more than the bound
//	regression  it is
//	unresolved  either set's own spread (q3-q1 over the median) is wider
//	            than the bound, so the runs cannot tell
//
// It exits 1 when any pairing is a regression.
func compareFiles(mf manifest, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err == nil {
		var b resultsFile
		if b, err = readResults(pathB); err == nil {
			return compareSets(mf, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareSets(mf manifest, a, b resultsFile) int {
	fmt.Printf("A: commit %s, %s, nproc %d, GOMAXPROCS %d, %d runs\n", a.Meta.Commit, a.Meta.Go, a.Meta.NumCPU, a.Meta.GOMAXPROCS, len(a.Runs))
	fmt.Printf("B: commit %s, %s, nproc %d, GOMAXPROCS %d, %d runs\n", b.Meta.Commit, b.Meta.Go, b.Meta.NumCPU, b.Meta.GOMAXPROCS, len(b.Runs))
	fmt.Printf("%-12s %-12s %31s %31s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse", "bound", "verdict")
	va, vb := a.values(), b.values()
	status := 0
	for _, w := range mf.Workloads {
		for _, d := range mf.EndToEnd {
			xa, xb := va[w.Name][d.Name], vb[w.Name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Printf("%-12s %-12s missing from one of the sets\n", w.Name, d.Name)
				status = 1
				continue
			}
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			worse := (b2 - a2) / a2
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case (a3-a1)/a2 > d.Bound || (b3-b1)/b2 > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regression"
				status = 1
			}
			fmt.Printf("%-12s %-12s %11.4f [%8.4f,%8.4f] %11.4f [%8.4f,%8.4f] %+7.1f%% %5.0f%%  %s\n",
				w.Name, d.Name, a2, a1, a3, b2, b1, b3, 100*worse, 100*d.Bound, verdict)
		}
	}
	return status
}
