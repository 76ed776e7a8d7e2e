package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: asyncmediator
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkExperimentSweep/workers=1         	       1	2451599519 ns/op
BenchmarkExperimentSweep/workers=4         	       1	1102383032 ns/op
BenchmarkE1_Theorem41/k=1,t=0,n=5-4      	     256	   4143520 ns/op	       812.0 msgs/run	  513344 B/op	    7042 allocs/op
PASS
ok  	asyncmediator	8.093s
`

func TestParse(t *testing.T) {
	s, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if s.Goos != "linux" || s.Goarch != "amd64" || !strings.Contains(s.CPU, "Xeon") {
		t.Fatalf("bad header: %+v", s)
	}
	if len(s.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(s.Benchmarks))
	}
	b := s.Benchmarks[0]
	if b.Name != "BenchmarkExperimentSweep/workers=1" || b.Iterations != 1 || b.Pkg != "asyncmediator" {
		t.Fatalf("bad benchmark: %+v", b)
	}
	if b.Metrics["ns/op"] != 2451599519 {
		t.Fatalf("bad ns/op: %v", b.Metrics)
	}
	e1 := s.Benchmarks[2]
	if e1.Metrics["msgs/run"] != 812 || e1.Metrics["allocs/op"] != 7042 {
		t.Fatalf("bad multi-metric parse: %+v", e1.Metrics)
	}
}

func TestParseSkipsMalformed(t *testing.T) {
	in := "BenchmarkBroken\nBenchmarkAlso broken here\nBenchmarkOK 2 10 ns/op\n"
	s, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks) != 1 || s.Benchmarks[0].Name != "BenchmarkOK" {
		t.Fatalf("want only the well-formed line: %+v", s.Benchmarks)
	}
}

// kernelSummary builds a Summary with one field-package kernel benchmark
// at the given ns/op, plus a non-kernel root-package benchmark the gate
// must ignore.
func kernelSummary(nsop, other float64) *Summary {
	return &Summary{Benchmarks: []Benchmark{
		{Pkg: "asyncmediator/internal/field", Name: "BenchmarkMulVec",
			Iterations: 1000, Metrics: map[string]float64{"ns/op": nsop}},
		{Pkg: "asyncmediator", Name: "BenchmarkExperimentSweep/workers=1",
			Iterations: 10, Metrics: map[string]float64{"ns/op": other}},
	}}
}

// TestKernelGateFailsOnInjectedRegression is the gate's contract: an
// injected 25% ns/op regression on a kernel benchmark must produce a
// non-zero failure count (CI exits 1), while the same slowdown on a
// non-kernel benchmark must not.
func TestKernelGateFailsOnInjectedRegression(t *testing.T) {
	seed := kernelSummary(1000, 1000)
	cur := kernelSummary(1250, 1250) // +25% on both
	var sb strings.Builder
	if gate(&sb, seed, cur) {
		t.Fatalf("injected 25%% kernel regression passed the gate\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "1 kernel benchmark(s) regressed") {
		t.Fatalf("want exactly one failing case: %q", sb.String())
	}
	if !strings.Contains(sb.String(), "FAIL") || !strings.Contains(sb.String(), "BenchmarkMulVec") {
		t.Fatalf("missing FAIL diagnostics: %q", sb.String())
	}
	if strings.Contains(sb.String(), "ExperimentSweep") {
		t.Fatalf("non-kernel benchmark must not be gated: %q", sb.String())
	}
}

// TestKernelGatePassesWithinThreshold: 20% is the edge; slightly under
// must pass, speedups must pass.
func TestKernelGatePassesWithinThreshold(t *testing.T) {
	seed := kernelSummary(1000, 1000)
	for _, cur := range []*Summary{
		kernelSummary(1190, 1190), // +19%
		kernelSummary(400, 400),   // speedup
		kernelSummary(1000, 1000), // unchanged
	} {
		var sb strings.Builder
		if !gate(&sb, seed, cur) {
			t.Fatalf("unexpected gate failure at %v ns/op: %s",
				cur.Benchmarks[0].Metrics["ns/op"], sb.String())
		}
	}
}

// TestKernelGateSkipsUnknownCases: benchmarks absent from the seed (new
// benches) are not gated.
func TestKernelGateSkipsUnknownCases(t *testing.T) {
	seed := kernelSummary(1000, 1000)
	cur := kernelSummary(1000, 1000)
	cur.Benchmarks = append(cur.Benchmarks, Benchmark{Pkg: "asyncmediator/internal/field",
		Name: "BenchmarkBrandNew", Iterations: 1, Metrics: map[string]float64{"ns/op": 9e9}})
	var sb strings.Builder
	if compared, bad := diffKernels(&sb, seed, cur); compared != 1 || bad != 0 {
		t.Fatalf("compared %d, failed %d; want only BenchmarkMulVec compared, passing: %s", compared, bad, sb.String())
	}
}

// TestKernelGateFailsOnMissingCase: a seed case the run lacks, such as a
// deleted or renamed kernel benchmark, fails the gate by name, and a case
// present behind a -N GOMAXPROCS suffix does not count as missing.
func TestKernelGateFailsOnMissingCase(t *testing.T) {
	seed := kernelSummary(1000, 1000)
	seed.Benchmarks = append(seed.Benchmarks, Benchmark{Pkg: "asyncmediator/internal/shamir",
		Name: "BenchmarkReconstruct32/scalar", Iterations: 1, Metrics: map[string]float64{"ns/op": 5000}})
	cur := kernelSummary(1000, 1000)
	cur.Benchmarks[0].Name = "BenchmarkMulVec-2"
	var sb strings.Builder
	if gate(&sb, seed, cur) {
		t.Fatalf("a run missing a seed case passed the gate\n%s", sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "BenchmarkReconstruct32/scalar is in the seed but not in the run") {
		t.Fatalf("the missing case was not named: %q", out)
	}
	if strings.Contains(out, "BenchmarkMulVec") {
		t.Fatalf("a suffixed case was reported: %q", out)
	}
	seed.Benchmarks = seed.Benchmarks[:2]
	if sb.Reset(); !gate(&sb, seed, cur) {
		t.Fatalf("a run with every seed case failed the gate: %s", sb.String())
	}
}

// TestKernelGateFailsWhenNothingMatches: a run sharing no kernel case
// with the seed checked nothing, and must fail rather than pass vacuously.
func TestKernelGateFailsWhenNothingMatches(t *testing.T) {
	seed := kernelSummary(1000, 1000)
	cur := &Summary{Benchmarks: []Benchmark{
		{Pkg: "asyncmediator/internal/field", Name: "BenchmarkBrandNew",
			Iterations: 1, Metrics: map[string]float64{"ns/op": 9e9}},
	}}
	var sb strings.Builder
	if gate(&sb, seed, cur) {
		t.Fatal("a run matching no seed case passed the gate")
	}
	if !strings.Contains(sb.String(), "checked nothing") {
		t.Fatalf("missing zero-match diagnostic: %q", sb.String())
	}
}

// TestKernelGateStripsProcsSuffix: `go test -bench` names carry a -N
// GOMAXPROCS suffix on multi-core runners that the seed lacks. Parsed from
// real output, they are still compared, including sub-benchmarks whose
// own names end in digits, and a 25% regression behind the suffix fails.
func TestKernelGateStripsProcsSuffix(t *testing.T) {
	seed, err := Parse(strings.NewReader(`pkg: asyncmediator/internal/poly
BenchmarkInterpolate/kernel-16 100 1000 ns/op
BenchmarkInterpolate/kernel-64 100 8000 ns/op
BenchmarkMul256/schoolbook 100 5000 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := Parse(strings.NewReader(`pkg: asyncmediator/internal/poly
BenchmarkInterpolate/kernel-16-2 100 1250 ns/op
BenchmarkInterpolate/kernel-64-2 100 8000 ns/op
BenchmarkMul256/schoolbook-2 100 5000 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	compared, bad := diffKernels(&sb, seed, cur)
	if compared != 3 || bad != 1 {
		t.Fatalf("compared %d, failed %d; want 3 and 1\n%s", compared, bad, sb.String())
	}
	if !strings.Contains(sb.String(), "BenchmarkInterpolate/kernel-16-2 regressed") {
		t.Fatalf("the regression was not pinned on kernel-16: %q", sb.String())
	}
	// A -cpu 1 run carries no suffix and matches exactly.
	if compared, _ := diffKernels(&sb, seed, seed); compared != 3 {
		t.Fatalf("unsuffixed run compared %d cases, want 3", compared)
	}
}
