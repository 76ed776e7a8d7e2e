// Command benchsummary is the kernel perf gate. It converts `go test
// -bench` text output (stdin) into a machine-readable JSON summary
// (stdout) and, with -kernels SEED.json, compares the field/poly/rs/shamir
// kernel micro-benchmarks (metric ns/op) against a committed baseline,
// EXITING NON-ZERO when any case slowed down more than 20%, when a
// baseline case is missing from the run (a deleted or renamed benchmark),
// or when no case matched the baseline at all:
//
//	go test -bench . -run '^$' ./internal/field/ ./internal/poly/ ./internal/rs/ ./internal/shamir/ \
//	    | benchsummary -kernels BENCH_kernels.json > BENCH_kernels_ci.json
//
// The kernels are tight arithmetic loops with stable timings, so a hard
// gate is reliable: a >20% ns/op jump on ScalarMulAddVec or batch
// interpolation is a real regression, not noise. End-to-end play cost is measured by
// bench/ (`bash bench/run.sh`), not here.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Pkg is the package the benchmark ran in.
	Pkg string `json:"pkg,omitempty"`
	// Name is the full benchmark name including sub-benchmark path and
	// the -N GOMAXPROCS suffix, e.g. "BenchmarkExperimentSweep/workers=4-4".
	Name string `json:"name"`
	// Iterations is b.N.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value, e.g. {"ns/op": 2.4e9, "msgs/run": 812}.
	Metrics map[string]float64 `json:"metrics"`
}

// Summary is the whole run.
type Summary struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Parse reads `go test -bench` text output.
func Parse(r io.Reader) (*Summary, error) {
	s := &Summary{Benchmarks: []Benchmark{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			s.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			s.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			s.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if !ok {
				continue // a status line like "BenchmarkFoo	--- FAIL"
			}
			b.Pkg = pkg
			s.Benchmarks = append(s.Benchmarks, b)
		}
	}
	return s, sc.Err()
}

// parseBenchLine parses "Name N value unit [value unit]...".
func parseBenchLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: f[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[f[i+1]] = v
	}
	return b, true
}

// kernelMetric is the unit the -kernels gate compares on, and kernelPkgs
// lists the packages whose benchmarks it gates. Lower is better for
// ns/op, so the gate trips when cur > seed * (1 + regressionFrac).
const (
	kernelMetric   = "ns/op"
	regressionFrac = 0.20
)

var kernelPkgs = map[string]bool{
	"asyncmediator/internal/field":  true,
	"asyncmediator/internal/poly":   true,
	"asyncmediator/internal/rs":     true,
	"asyncmediator/internal/shamir": true,
}

// diffKernels compares cur's kernel benchmarks against the seed summary
// and writes one FAIL line per case that slowed down more than
// regressionFrac and per seed case the run does not have. It returns how
// many cases it compared and how many failed. A current case the seed
// lacks (a new benchmark) is skipped. The seed holds names without the -N
// GOMAXPROCS suffix `go test -bench` appends on multi-core runs, so a
// current name that misses is looked up again without it.
func diffKernels(w io.Writer, seed, cur *Summary) (compared, bad int) {
	type key struct{ pkg, name string }
	base := map[key]float64{}
	for _, b := range seed.Benchmarks {
		if kernelPkgs[b.Pkg] {
			if v, ok := b.Metrics[kernelMetric]; ok && v > 0 {
				base[key{b.Pkg, b.Name}] = v
			}
		}
	}
	seen := map[key]bool{}
	for _, b := range cur.Benchmarks {
		k := key{b.Pkg, b.Name}
		want, ok := base[k]
		if !ok {
			k.name = trimProcs(b.Name)
			want, ok = base[k]
		}
		if !ok {
			continue
		}
		seen[k] = true
		compared++
		got := b.Metrics[kernelMetric]
		if got > want*(1+regressionFrac) {
			bad++
			fmt.Fprintf(w, "benchsummary: FAIL: %s %s regressed: %.1f %s vs seed %.1f (+%.0f%%, threshold %.0f%%)\n",
				b.Pkg, b.Name, got, kernelMetric, want, 100*(got/want-1), 100*regressionFrac)
		}
	}
	for _, b := range seed.Benchmarks {
		k := key{b.Pkg, b.Name}
		if _, gated := base[k]; gated && !seen[k] {
			bad++
			fmt.Fprintf(w, "benchsummary: FAIL: %s %s is in the seed but not in the run (deleted or renamed?)\n",
				b.Pkg, b.Name)
		}
	}
	return compared, bad
}

// trimProcs strips a trailing -N (decimal digits) from a benchmark name:
// "BenchmarkInterpolate/kernel-16-2" becomes "BenchmarkInterpolate/kernel-16".
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// loadSummary reads a committed summary JSON from disk.
func loadSummary(path string) (*Summary, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Summary
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

func main() {
	kernels := flag.String("kernels", "", "seed summary JSON to gate kernel ns/op against (hard-fail)")
	flag.Parse()
	s, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsummary:", err)
		os.Exit(1)
	}
	var seed *Summary
	if *kernels != "" {
		if seed, err = loadSummary(*kernels); err != nil {
			fmt.Fprintln(os.Stderr, "benchsummary:", err)
			os.Exit(1)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		fmt.Fprintln(os.Stderr, "benchsummary:", err)
		os.Exit(1)
	}
	if seed != nil && !gate(os.Stderr, seed, s) {
		os.Exit(1)
	}
}

// gate runs the kernel comparison and reports whether the run passes: it
// fails when any case regressed or is missing, and when no case matched
// the seed at all, since a gate that compared nothing checked nothing.
func gate(w io.Writer, seed, cur *Summary) bool {
	compared, bad := diffKernels(w, seed, cur)
	switch {
	case compared == 0:
		fmt.Fprintln(w, "benchsummary: no kernel benchmark matched the seed: the gate checked nothing")
		return false
	case bad > 0:
		fmt.Fprintf(w, "benchsummary: %d kernel benchmark(s) regressed beyond %.0f%% or missing from the run\n", bad, 100*regressionFrac)
		return false
	}
	return true
}
