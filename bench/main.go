// Command bench is the repository's play benchmark (see README.md in
// this directory and BENCHMARK.json at the repository root).
//
//	bash bench/run.sh                                   every workload, end to end
//	bash bench/run.sh --workload sim-n5 --seed 7        one workload
//	bash bench/run.sh --trace 1                         the per-layer traced run
//	bash bench/run.sh --runs 3 --out A.json             record a set of runs
//	bash bench/run.sh --compare A.json B.json           compare two sets
//
// It is a single process: the farms it measures are booted in-process
// behind real loopback listeners, the closed-loop clients are goroutines,
// and load is sized to the box (clients = farm workers = min(nproc, 4)).
// Each layer is measured from outside, through public functions and the
// seams the repository already has; the benchmark changes no file of
// the program it measures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one result with what produced it, as the results files keep it.
type run struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	// Samples is the number of plays behind the latency percentiles.
	Samples int `json:"samples"`
	result
}

// resultsFile is what --out writes and --compare reads.
type resultsFile struct {
	Meta struct {
		NumCPU     int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
		Commit     string `json:"commit"`
		Clients    int    `json:"clients"`
		When       string `json:"when"`
	} `json:"meta"`
	Runs []run `json:"runs"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name     = flag.String("workload", "", "workload to run (default: every workload)")
		seed     = flag.Int64("seed", 1, "workload seed: per-play seeds and type profiles derive from it")
		seconds  = flag.Int("seconds", 0, "measured window per run (default: BENCHMARK.json run_seconds)")
		trace    = flag.Int("trace", 0, "1: the traced run (per-layer metrics); 0: end to end, shims off")
		runs     = flag.Int("runs", 1, "repeat each workload this many times, seed, seed+1, ...")
		out      = flag.String("out", "", "write every run's result to this JSON file")
		compare  = flag.Bool("compare", false, "compare two results files: --compare A.json B.json")
		manifest = flag.String("manifest", "BENCHMARK.json", "the benchmark's manifest")
		tmpRoot  = flag.String("tmp", filepath.Join(".bench_build", "tmp"), "directory for temporary files")
		traceDir = flag.String("tracedir", filepath.Join("bench", "out"), "where a traced run writes trace-<workload>.json")
	)
	flag.Parse()

	mf, err := readManifest(*manifest)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: --compare takes two results files")
			return 2
		}
		return compareFiles(mf, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = mf.RunSeconds
	}
	todo := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{w}
	}

	// Everything temporary lives in one directory that every exit path
	// removes: the deferred call, the watchdog, and a signal.
	if err := os.MkdirAll(*tmpRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	tmp, err := os.MkdirTemp(*tmpRoot, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cleanup := func() { _ = os.RemoveAll(tmp) }
	defer cleanup()
	wd := newWatchdog(cleanup)
	defer wd.close()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sigc; ok {
			cleanup()
			os.Exit(130)
		}
	}()
	defer func() { signal.Stop(sigc); close(sigc) }()

	clients := runtime.NumCPU()
	if clients > 4 {
		clients = 4
	}
	var rf resultsFile
	rf.Meta.NumCPU, rf.Meta.GOMAXPROCS, rf.Meta.Go = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	rf.Meta.Commit, rf.Meta.Clients, rf.Meta.When = commit(), clients, time.Now().UTC().Format(time.RFC3339)

	ok := true
	for r := 0; r < *runs; r++ {
		for _, w := range todo {
			e := &env{seed: *seed + int64(r), clients: clients, tmp: tmp, wd: wd}
			// A whole run must end well inside the pipeline's 180 s.
			leave := wd.enter("run of "+w.name, time.Duration(*seconds)*time.Second+110*time.Second)
			var res run
			if *trace == 1 {
				e.tr = newTracer()
				res, err = runTraced(e, w, *seconds, *traceDir)
			} else {
				res, err = runEndToEnd(e, w, *seconds)
			}
			leave()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			for name, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					fmt.Fprintf(os.Stderr, "bench: %s: metric %s is not finite\n", w.name, name)
					return 1
				}
			}
			res.Workload, res.Seed, res.Seconds, res.Trace = w.name, e.seed, *seconds, *trace
			printRun(mf, res)
			rf.Runs = append(rf.Runs, res)
			ok = ok && res.Correct
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(rf, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// commit names the measured commit; a checkout that is not a git
// repository reads "unknown".
func commit() string {
	b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// setupReps is how many times a run sets the workload up; setup_s is the
// median, and the last set-up is the one measured on (a variable so the
// smoke test can shrink it).
var setupReps = 3

// setUp boots the workload and runs its fixed-count warm-up.
func setUp(e *env, w workload, ps playSpec) (instance, error) {
	inst, err := w.boot(e, ps)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	warm := runLoop(context.Background(), e, inst.play, warmBase, w.warmup, 0)
	if warm.failed > 0 {
		inst.close()
		return nil, fmt.Errorf("warm-up: %d of %d plays failed: %w", warm.failed, warm.attempted, warm.firstErr)
	}
	return inst, nil
}

// runEndToEnd is the untraced run: set up, measure one closed-loop
// window, check every play, report the end-to-end metrics.
func runEndToEnd(e *env, w workload, seconds int) (run, error) {
	ps, err := w.spec()
	if err != nil {
		return run{}, err
	}
	var (
		inst   instance
		setups []float64
	)
	for r := 0; r < setupReps; r++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		if inst, err = setUp(e, w, ps); err != nil {
			return run{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	length := time.Duration(seconds) * time.Second
	loop := runLoop(context.Background(), e, inst.play, 0, 0, length)
	win := summarize(loop.samples, length, e.clients)
	res := run{Samples: win.n}
	res.Attempted, res.Failed = loop.attempted, loop.failed
	res.Correct = loop.failed == 0 && win.n > 0
	if loop.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: first failed play: %v\n", w.name, loop.firstErr)
	}
	if err := inst.settle(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		res.Correct = false
	}
	res.Metrics = map[string]metric{
		"plays_per_s": {win.perSec, "plays/s"},
		"play_p50_ms": {win.p50ms, "ms"},
		"play_p95_ms": {win.p95ms, "ms"},
		"setup_s":     {median(setups), "s"},
	}
	return res, nil
}

// printRun prints every metric by name with its unit, in the manifest's
// order (the smoke test holds the two lists equal), then the result
// object as the last line.
func printRun(mf manifest, r run) {
	defs := mf.EndToEnd
	if r.Trace == 1 {
		defs = mf.PerLayer
	}
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Printf("%-12s %-34s %14.4f %s\n", r.Workload, d.Name, m.Value, m.Unit)
		}
	}
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("%-12s %-34s %14.4f ratio (%d failed of %d attempted; %d latency samples)\n",
		r.Workload, "failed_frac", frac, r.Failed, r.Attempted, r.Samples)
	b, _ := json.Marshal(r.result) // plain structs of finite numbers (main checked) always encode
	fmt.Println(string(b))
}
