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
	if got := diffKernels(&sb, seed, cur); got != 1 {
		t.Fatalf("injected 25%% kernel regression: %d failures, want 1\n%s", got, sb.String())
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
		if got := diffKernels(&sb, seed, cur); got != 0 {
			t.Fatalf("unexpected gate failure at %v ns/op: %s",
				cur.Benchmarks[0].Metrics["ns/op"], sb.String())
		}
	}
}

// TestKernelGateSkipsUnknownCases: benchmarks absent from the seed (new
// benches) or from the current run (filtered out) are not gated.
func TestKernelGateSkipsUnknownCases(t *testing.T) {
	seed := kernelSummary(1000, 1000)
	cur := &Summary{Benchmarks: []Benchmark{
		{Pkg: "asyncmediator/internal/field", Name: "BenchmarkBrandNew",
			Iterations: 1, Metrics: map[string]float64{"ns/op": 9e9}},
	}}
	var sb strings.Builder
	if got := diffKernels(&sb, seed, cur); got != 0 {
		t.Fatalf("new benchmark must not be gated: %s", sb.String())
	}
}
