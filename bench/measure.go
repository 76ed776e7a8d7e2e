package main

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// sample is one completed, checked play: when it ended (offset from the
// window start), how long the client waited for it, and how long the
// client's whole iteration took (on durable-mix the play plus its reads).
type sample struct {
	end     time.Duration
	latency time.Duration
	cycle   time.Duration
}

// quantile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// window summarizes the samples of one measured window.
type window struct {
	n      int // plays that ended inside the window
	perSec float64
	p50ms  float64
	p95ms  float64
}

// A window is cut into equal slices, at most maxSlices and with about
// slicePlays plays each at least, and throughput, p50 and p95 are taken
// per slice. The run reports the better quartile over the slices: the
// third quartile of the slice throughputs, the first quartile of the
// slice latencies. Interference on the box — a neighbour, a compaction,
// a GC cycle in a small heap right after boot — only ever slows a slice
// down, so the better quartile is the steadier estimate of what the
// code does; the median over slices moved twice as much from run to run.
const (
	maxSlices  = 20
	slicePlays = 10
)

// summarize reports the window [0, length). Slice throughput is the
// closed loop's clients / mean cycle time (Little's law), which unlike a
// count of completions does not jump by whole plays when a slice holds
// few of them. Samples that ended after length are ignored.
func summarize(samples []sample, length time.Duration, clients int) window {
	var w window
	for _, s := range samples {
		if s.end < length {
			w.n++
		}
	}
	if w.n == 0 {
		return w
	}
	slices := w.n / slicePlays
	if slices < 1 {
		slices = 1
	}
	if slices > maxSlices {
		slices = maxSlices
	}
	lat := make([][]float64, slices)
	cycle := make([]time.Duration, slices)
	for _, s := range samples {
		if s.end >= length {
			continue
		}
		k := int(int64(s.end) * int64(slices) / int64(length))
		lat[k] = append(lat[k], float64(s.latency)/float64(time.Millisecond))
		cycle[k] += s.cycle
	}
	var rate, p50, p95 []float64
	for k, l := range lat {
		if len(l) == 0 {
			continue
		}
		sort.Float64s(l)
		rate = append(rate, float64(clients)*float64(len(l))/cycle[k].Seconds())
		p50 = append(p50, quantile(l, 0.50))
		p95 = append(p95, quantile(l, 0.95))
	}
	w.perSec, w.p50ms, w.p95ms = quantileOf(rate, 0.75), quantileOf(p50, 0.25), quantileOf(p95, 0.25)
	return w
}

// procSnap is a point-in-time reading of the process's own cost
// counters; the difference of two brackets a window.
type procSnap struct {
	mallocs uint64
	bytes   uint64
	gcCPU   float64       // CPU seconds the garbage collector has used
	cpu     time.Duration // user+system
}

func readProc() procSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero CPU on failure; the metric reads 0
	gc := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(gc)
	p := procSnap{
		mallocs: m.Mallocs,
		bytes:   m.TotalAlloc,
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
	if gc[0].Value.Kind() == rtmetrics.KindFloat64 {
		p.gcCPU = gc[0].Value.Float64()
	}
	return p
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is in KiB
// on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// procCost is the per-play process cost of one window.
type procCost struct {
	allocsPerPlay  float64
	allocKBPerPlay float64
	gcCPUFrac      float64
	cpuSPerPlay    float64
}

// procDelta divides the counters accumulated between a and b by the plays
// completed between them; the GC share is GC CPU over all CPU the
// process used in between.
func procDelta(a, b procSnap, plays int) procCost {
	if plays == 0 {
		return procCost{}
	}
	n := float64(plays)
	c := procCost{
		allocsPerPlay:  float64(b.mallocs-a.mallocs) / n,
		allocKBPerPlay: float64(b.bytes-a.bytes) / 1024 / n,
		cpuSPerPlay:    (b.cpu - a.cpu).Seconds() / n,
	}
	if cpu := (b.cpu - a.cpu).Seconds(); cpu > 0 {
		c.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return c
}
