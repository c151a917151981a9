package main

// The steadiness command: run every workload N times with seeds 1..N,
// alternating the workload order, and report each end-to-end metric's
// median, quartiles and spread against its bound in BENCHMARK.json. Every
// run must pass its checks with no failed operation.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// SteadyReport is one result set, with the machine it was measured on.
type SteadyReport struct {
	Commit     string                          `json:"commit"`
	GoVersion  string                          `json:"goVersion"`
	GOMAXPROCS int                             `json:"gomaxprocs"`
	NumCPU     int                             `json:"nproc"`
	CPU        string                          `json:"cpu"`
	Started    string                          `json:"started"`
	Runs       int                             `json:"runs"`
	Seconds    float64                         `json:"seconds"`
	Values     map[string]map[string][]float64 `json:"values"` // workload → metric → per-run values
	Asides     map[string]map[string][]float64 `json:"asides"` // workload → aside figure → per-run values
}

func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	runs := fs.Int("runs", 10, "runs per workload, seeds 1..runs")
	seconds := fs.Float64("seconds", 0, "seconds per run (0: run_seconds of BENCHMARK.json)")
	only := fs.String("workloads", "", "comma-separated workloads (default: those of BENCHMARK.json)")
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition")
	baseline := fs.String("baseline", "", "an earlier result set to compare medians against")
	out := fs.String("o", "", "write the result set here (default .bench_build/steady-<time>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if *only != "" {
		names = strings.Split(*only, ",")
		for _, w := range names {
			if workloads[w] == nil {
				return fmt.Errorf("unknown workload %q", w)
			}
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := SteadyReport{
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPU: cpuModel(), Started: time.Now().UTC().Format(time.RFC3339),
		Runs: *runs, Seconds: *seconds,
		Values: map[string]map[string][]float64{}, Asides: map[string]map[string][]float64{},
	}
	fmt.Printf("commit %s, %s, GOMAXPROCS %d, nproc %d, %s\n", rep.Commit, rep.GoVersion, rep.GOMAXPROCS, rep.NumCPU, rep.CPU)
	for i := 0; i < *runs; i++ {
		order := slices.Clone(names)
		if i%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			seed := i + 1
			cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(*seconds), "--trace", "0")
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, nil
			start, steal0 := time.Now(), stealTicks()
			runErr := cmd.Run()
			stolen := float64(stealTicks()-steal0) / 100 / float64(runtime.NumCPU()) / time.Since(start).Seconds()
			res, perr := lastJSON(stdout.Bytes())
			if runErr != nil || perr != nil || !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s seed %d: run failed (%v, %v, %d failed operations): %s", w, seed, runErr, perr, res.Failed, tail(stdout.String()))
			}
			if rep.Values[w] == nil {
				rep.Values[w], rep.Asides[w] = map[string][]float64{}, map[string][]float64{}
			}
			for name, m := range res.Metrics {
				rep.Values[w][name] = append(rep.Values[w][name], m.Value)
			}
			for name, v := range asides(stdout.Bytes()) {
				rep.Asides[w][name] = append(rep.Asides[w][name], v)
			}
			fmt.Printf("run %2d %-10s %5.1fs, %d operations, %4.1f%% of the CPUs stolen by the host:", seed, w, time.Since(start).Seconds(), res.Attempted, 100*stolen)
			for _, m := range spec.EndToEnd {
				fmt.Printf(" %s=%.4g", m.Name, res.Metrics[m.Name].Value)
			}
			fmt.Println()
		}
	}
	if *out == "" {
		*out = filepath.Join(".bench_build", "steady-"+time.Now().UTC().Format("20060102-150405")+".json")
	}
	data, _ := json.MarshalIndent(rep, "", "  ")
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	var base *SteadyReport
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			return err
		}
		base = &SteadyReport{}
		if err := json.Unmarshal(raw, base); err != nil {
			return err
		}
	}
	bad := 0
	fmt.Printf("\n%-10s %-14s %12s %12s %12s %7s %6s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			vs := rep.Values[w][m.Name]
			q1, q3 := quartiles(vs)
			med := median(vs)
			spread := (q3 - q1) / med
			verdict := "steady"
			switch {
			case spread > m.Bound:
				verdict = "TOO WIDE"
				bad++
			case spread > m.Bound/3:
				verdict = "within bound, above a third of it"
			}
			if base != nil {
				old := median(base.Values[w][m.Name])
				worse := (med - old) / old
				if m.Better == "higher" {
					worse = (old - med) / old
				}
				verdict += fmt.Sprintf("; vs baseline %+.1f%%", -100*worse)
				if worse > m.Bound {
					verdict += " WORSE THAN BOUND"
					bad++
				}
			}
			fmt.Printf("%-10s %-14s %12.4f %12.4f %12.4f %6.3f %6.2f  %s\n", w, m.Name, q1, med, q3, spread, m.Bound, verdict)
		}
	}
	fmt.Printf("\nnot gated:\n")
	for _, w := range names {
		var as []string
		for name := range rep.Asides[w] {
			as = append(as, name)
		}
		sort.Strings(as)
		for _, name := range as {
			vs := rep.Asides[w][name]
			q1, q3 := quartiles(vs)
			med := median(vs)
			fmt.Printf("%-10s %-20s %12.4f %12.4f %12.4f %6.3f\n", w, name, q1, med, q3, (q3-q1)/med)
		}
	}
	fmt.Printf("\nresult set written to %s\n", *out)
	if bad > 0 {
		return fmt.Errorf("%d check(s) failed", bad)
	}
	return nil
}

// quartiles are the first and third quartiles by the "exclusive" method
// (Python's statistics.quantiles(values, n=4) default).
func quartiles(xs []float64) (q1, q3 float64) {
	d := slices.Clone(xs)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		return d[0], d[0]
	}
	m := ld + 1
	var out [2]float64
	for k, i := range []int{1, 3} {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		out[k] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out[0], out[1]
}

// asides reads a run's "aside <name> <value>" lines: figures it prints
// but does not report as metrics.
func asides(stdout []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(stdout), "\n") {
		var name string
		var v float64
		if n, _ := fmt.Sscanf(line, "aside %s %g", &name, &v); n == 2 {
			out[name] = v
		}
	}
	return out
}

func lastJSON(stdout []byte) (runResult, error) {
	var res runResult
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if len(lines) == 0 {
		return res, fmt.Errorf("no output")
	}
	err := json.Unmarshal(lines[len(lines)-1], &res)
	return res, err
}

func tail(s string) string {
	if len(s) > 600 {
		return s[len(s)-600:]
	}
	return s
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
