// Command cxbench is C-Explorer's benchmark. One run generates its inputs
// from a seed, builds the serving stack in this process, drives one
// workload over loopback HTTP, checks every answer against the benchmark's
// own oracle and prints its metrics; the last line of standard output is a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	cxbench --workload acq-cold --seed 1 --seconds 10 --trace 0
//	cxbench steady --runs 10 --seconds 10
//	cxbench gen <dir> dblp|small    (writes one generated graph's input files)
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*Run) error{
	"acq-cold":  runACQCold,
	"browse":    runBrowse,
	"compare":   runCompare,
	"write-ryw": runWriteRYW,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "steady:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) == 4 && os.Args[1] == "gen" {
		if err := writeGraph(os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "gen:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("cxbench", flag.ExitOnError)
	workload := fs.String("workload", "acq-cold", "workload: acq-cold, browse, compare or write-ryw")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "measure whole panel rounds until this many seconds have passed")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "directory for generated inputs, catalogs and traces")
	keep := fs.Bool("keep", false, "keep the run's input files and catalogs")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	drive, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cleanup := func() {
		if !*keep {
			os.RemoveAll(dir)
		}
	}
	r := &Run{
		Workload: *workload,
		Seed:     *seed,
		Duration: time.Duration(*seconds * float64(time.Second)),
		Dir:      dir,
		Traced:   *trace == 1,
		ops:      map[string]*opCount{},
		metrics:  map[string]Metric{},
	}
	if r.Traced {
		r.tracer = &Tracer{}
	}
	err := drive(r)
	code := 0
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *workload, err)
		cleanup()
		os.Exit(1)
	}
	if len(r.wrong) > 0 {
		for i, w := range r.wrong {
			if i == 20 {
				fmt.Fprintf(os.Stderr, "... and %d more\n", len(r.wrong)-20)
				break
			}
			fmt.Fprintln(os.Stderr, "WRONG:", w)
		}
		code = 1
	}
	if failed := r.failed(); failed > 0 {
		// Every workload is sized so that nothing is shed: a failed
		// operation, 429 and 503 included, fails the run.
		fmt.Fprintf(os.Stderr, "FAILED: %d operations did not answer 200\n", failed)
		code = 1
	}
	if r.Traced {
		if err := r.tracer.Write(filepath.Join(*work, fmt.Sprintf("trace-%s-%d.json", *workload, *seed))); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	r.printResult()
	cleanup()
	os.Exit(code)
}

// Run is one invocation: its settings, its operation accounting, its
// correctness findings and the metrics it reports.
type Run struct {
	Workload string
	Seed     int64
	Duration time.Duration
	Dir      string
	Traced   bool
	tracer   *Tracer

	mu       sync.Mutex
	ops      map[string]*opCount
	wrong    []string
	metrics  map[string]Metric
	failures int
	started  time.Time
	peakRSS  float64      // MB, read after the first stack build
	setups   []float64    // seconds of every timed stack build
	resample func() error // times more stack builds (see setUp)
}

type opCount struct{ attempted, failed int64 }

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phase logs how long the run has been going, for reading where its time
// goes.
func (r *Run) phase(name string) {
	if r.started.IsZero() {
		r.started = time.Now()
	}
	fmt.Fprintf(os.Stderr, "%8.2fs %s\n", time.Since(r.started).Seconds(), name)
}

// count records one attempted operation of a kind and whether it failed.
func (r *Run) count(kind string, failed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.ops[kind]
	if c == nil {
		c = &opCount{}
		r.ops[kind] = c
	}
	c.attempted++
	if failed {
		c.failed++
	}
}

// failed is the number of failed operations of every kind.
func (r *Run) failed() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, c := range r.ops {
		n += c.failed
	}
	return n
}

// wrongf records a failed correctness check.
func (r *Run) wrongf(format string, args ...any) {
	r.mu.Lock()
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// set records a metric: end-to-end ones in an untraced run, per-layer ones
// in a traced run.
func (r *Run) set(name, unit string, v float64) {
	r.mu.Lock()
	r.metrics[name] = Metric{Value: v, Unit: unit}
	r.mu.Unlock()
}

func (r *Run) printResult() {
	kinds := make([]string, 0, len(r.ops))
	for k := range r.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var attempted, failed int64
	for _, k := range kinds {
		c := r.ops[k]
		fmt.Printf("ops %-16s attempted=%d failed=%d\n", k, c.attempted, c.failed)
		attempted += c.attempted
		failed += c.failed
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-28s %14.6f %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	out, _ := json.Marshal(map[string]any{
		"correct":   len(r.wrong) == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   r.metrics,
	})
	fmt.Println(string(out))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscan(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), &kb)
			return kb / 1024
		}
	}
	return 0
}
