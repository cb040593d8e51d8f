// Command benchmark is the repository's benchmark: five workloads from one
// sweep cell to the served feed, measured end to end with tracing off, plus
// a separate traced run that attributes a pass's time to the layers it
// crosses and probes each layer on its own. See README.md.
//
// Usage (from the repository root; run.sh builds and runs the same binary):
//
//	go run -C benchmark . -workload sweep-ml-f64 -seed 1     one workload
//	go run -C benchmark . -workload sim-classic -trace 1     its traced run
//	go run -C benchmark . -all                               every workload
//	go run -C benchmark . -repeat 2 -aa AA.md                A/A: two sets, same seed
//	go run -C benchmark . -repeat 10 -vary-seed              seed-to-seed spread
//	go run -C benchmark . -compare old.json new.json         two -json result files
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics; the exit code is non-zero when an
// output check or an operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	all      bool
	repeat   int
	varySeed bool
	smoke    bool
	outDir   string
	jsonOut  string
	aaOut    string
}

func main() {
	var o options
	var spec, compare bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), " | "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "1 = the traced run (per-layer metrics, stage attribution), 0 = end-to-end metrics with tracing off")
	flag.BoolVar(&o.all, "all", false, "run every workload, each in its own child process")
	flag.IntVar(&o.repeat, "repeat", 0, "run N full sets and compare them by each metric's bound")
	flag.BoolVar(&o.varySeed, "vary-seed", false, "with -repeat: set i uses seed+i, and the table shows the seed-to-seed spread")
	flag.BoolVar(&o.smoke, "smoke", false, "minimum sizes (the self-test's scale); numbers are not comparable")
	flag.StringVar(&o.outDir, "out", defaultOutDir(), "directory for trace-<workload>.json and scratch files")
	flag.StringVar(&o.jsonOut, "json", "", "also write the full result (environment header, checks, metrics) to this file")
	flag.StringVar(&o.aaOut, "aa", "", "with -repeat: write the comparison as markdown to this file")
	flag.BoolVar(&spec, "spec", false, "print BENCHMARK.json and exit")
	flag.BoolVar(&compare, "compare", false, "compare two -json result files given as arguments")
	flag.Parse()

	var err error
	switch {
	case spec:
		var b []byte
		if b, err = benchmarkJSON(); err == nil {
			_, err = os.Stdout.Write(b)
		}
	case compare:
		err = compareFiles(flag.Args())
	case o.repeat > 0:
		err = runRepeat(o)
	case o.all:
		_, err = runSet(o, o.seed, true)
	case o.workload != "":
		err = runOne(o)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// defaultOutDir is benchmark/out from the repository root and out from the
// benchmark's own directory.
func defaultOutDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func (o options) runCtx() *runCtx {
	sc := fullScale
	if o.smoke {
		sc = smokeScale
	}
	return &runCtx{seed: o.seed, seconds: o.seconds, sc: sc, clients: min(runtime.NumCPU(), 4), outDir: o.outDir}
}

// runOne runs one workload in this process and prints its result.
func runOne(o options) error {
	spec, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	run := runUntraced
	if o.trace != 0 {
		run = runTraced
	}
	rep, err := run(spec, o.runCtx())
	if err != nil {
		return fmt.Errorf("%s: %w", spec.Name, err)
	}
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, rep); err != nil {
			return err
		}
	}
	printReport(rep)
	// The driver's line: exactly these four keys, and last.
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.correct(), rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.correct() {
		return fmt.Errorf("%s: %d of %d operations failed, or an output check did (see above)", spec.Name, rep.Failed, rep.Attempted)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printReport prints every metric by name with its unit, the output checks
// and, for a traced run, the stage-attribution table.
func printReport(rep *report) {
	mode := "end-to-end (tracing off)"
	if rep.Traced {
		mode = "traced (per-layer)"
	}
	fmt.Printf("== %s  seed=%d  %s\n", rep.Workload, rep.Seed, mode)
	fmt.Printf("env: %s\n", rep.Env)
	fmt.Printf("passes=%d op_samples=%d attempted=%d failed=%d\n", rep.Passes, rep.Samples, rep.Attempted, rep.Failed)
	if !rep.Traced {
		fmt.Printf("floor pass %.6g s, fastest pass as it ran %.6g s\n", rep.FloorPassS, rep.BestPassS)
	}
	for _, m := range specsFor(rep.Traced) {
		if v, ok := rep.Metrics[m.Name]; ok {
			fmt.Printf("  %-46s %16.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
	if rep.Traced {
		fmt.Println("stage attribution (share of the traced passes' summed span self time):")
		for _, s := range stageNames {
			fmt.Printf("  %-14s %6.2f%%\n", s, 100*rep.Stages[s])
		}
	}
	for _, c := range rep.Checks {
		if c.OK {
			fmt.Printf("  ok    %s\n", c.Name)
		} else {
			fmt.Printf("  FAIL  %s: %s\n", c.Name, c.Detail)
		}
	}
}

// runSet runs every workload once, each in its own child process (so
// peak_rss_mb is the workload's own and a crash costs one workload), and
// returns the reports by workload name.
func runSet(o options, seed int64, echo bool) (map[string]*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	out := map[string]*report{}
	for _, w := range workloads {
		path := filepath.Join(o.outDir, fmt.Sprintf("result-%s-%d.json", w.Name, os.Getpid()))
		args := []string{"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(o.trace), "-out", o.outDir, "-json", path}
		if o.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		if echo {
			cmd.Stdout = os.Stdout
		}
		runErr := cmd.Run()
		var rep report
		b, err := os.ReadFile(path)
		os.Remove(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %v (child: %v)", w.Name, err, runErr)
		}
		if err := json.Unmarshal(b, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, runErr)
		}
		out[w.Name] = &rep
	}
	return out, nil
}

// specsFor returns the metric declarations a report's metrics follow.
func specsFor(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

// compareReports compares got against base by each metric's bound and
// returns the violations. Host-time metrics are refused — not compared —
// when the environment headers differ; simulated metrics of one seed must
// then still agree within their bound.
func compareReports(base, got *report) (violations, refused []string) {
	sameHost := base.Env.sameHost(got.Env)
	for _, m := range specsFor(base.Traced) {
		b, ok1 := base.Metrics[m.Name]
		g, ok2 := got.Metrics[m.Name]
		if !ok1 || !ok2 || m.Bound == 0 {
			continue
		}
		if m.HostTime && !sameHost {
			refused = append(refused, m.Name)
			continue
		}
		if w := worsening(m, b.Value, g.Value); w > m.Bound && math.Abs(g.Value-b.Value) > m.Slack {
			violations = append(violations, fmt.Sprintf("%s %s: %.6g -> %.6g %s is %.1f%% worse (bound %.0f%%)",
				base.Workload, m.Name, b.Value, g.Value, m.Unit, 100*w, 100*m.Bound))
		}
	}
	return violations, refused
}

// compareFiles is -compare: two files written by -json.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare wants two result files, got %d", len(paths))
	}
	var reps [2]report
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &reps[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if reps[0].Workload != reps[1].Workload || reps[0].Traced != reps[1].Traced {
		return fmt.Errorf("results are of different runs: %s traced=%v vs %s traced=%v",
			reps[0].Workload, reps[0].Traced, reps[1].Workload, reps[1].Traced)
	}
	violations, refused := compareReports(&reps[0], &reps[1])
	if len(refused) > 0 {
		fmt.Printf("environment headers differ; host-time metrics not compared: %s\n  base: %s\n  new:  %s\n",
			strings.Join(refused, ", "), reps[0].Env, reps[1].Env)
	}
	for _, v := range violations {
		fmt.Println("REGRESSION", v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", len(violations))
	}
	fmt.Println("no metric worse than its bound")
	return nil
}

// runRepeat is -repeat N: N full sets, a per metric × workload table of
// median, quartiles and relative spread, and the pairwise bound check.
func runRepeat(o options) error {
	if o.trace != 0 {
		return fmt.Errorf("-repeat compares end-to-end metrics; run it with -trace 0")
	}
	sets := make([]map[string]*report, o.repeat)
	for i := range sets {
		seed := o.seed
		if o.varySeed {
			seed += int64(i)
		}
		fmt.Fprintf(os.Stderr, "set %d of %d (seed %d)\n", i+1, o.repeat, seed)
		set, err := runSet(o, seed, false)
		if err != nil {
			return err
		}
		sets[i] = set
	}

	var md strings.Builder
	env := sets[0][workloads[0].Name].Env
	kind := fmt.Sprintf("%d sets of the same code on seed %d", o.repeat, o.seed)
	if o.varySeed {
		kind = fmt.Sprintf("%d sets of the same code on seeds %d..%d", o.repeat, o.seed, o.seed+int64(o.repeat)-1)
	}
	fmt.Fprintf(&md, "# A/A: %s\n\n`%s`, %g s measured per run.\n\n", kind, env, o.seconds)
	fmt.Fprintf(&md, "Spread is (Q3 − Q1) / median over the sets, by Python's `statistics.quantiles(n=4)` rule.\n")
	for _, m := range endToEnd {
		if m.Slack > 0 {
			fmt.Fprintf(&md, "Two values of `%s` less than %g %s apart agree, whatever share of the first that is.\n", m.Name, m.Slack, m.Unit)
		}
	}
	fmt.Fprintln(&md)
	fmt.Fprintf(&md, "| workload | metric | unit | median | Q1 | Q3 | spread | bound | values |\n|---|---|---|---:|---:|---:|---:|---:|---|\n")

	var failures []string
	for _, w := range workloads {
		for _, m := range endToEnd {
			vals := make([]float64, len(sets))
			strs := make([]string, len(sets))
			for i, set := range sets {
				vals[i] = set[w.Name].Metrics[m.Name].Value
				strs[i] = fmt.Sprintf("%.5g", vals[i])
			}
			q1, q3 := quartiles(vals)
			spread := relSpread(vals)
			fmt.Fprintf(&md, "| %s | %s | %s | %.5g | %.5g | %.5g | %.2f%% | %.0f%% | %s |\n",
				w.Name, m.Name, m.Unit, median(vals), q1, q3, 100*spread, 100*m.Bound, strings.Join(strs, " "))
			switch {
			case o.varySeed:
				// The driver's acceptance rule: the spread must stay within
				// the bound (set-up time excepted).
				if m.Name != "setup_s" && spread > m.Bound {
					failures = append(failures, fmt.Sprintf("%s %s: spread %.1f%% exceeds its bound %.0f%%", w.Name, m.Name, 100*spread, 100*m.Bound))
				}
			case !m.HostTime:
				// Same code, same seed: simulated statistics repeat exactly.
				for i := range vals {
					if vals[i] != vals[0] {
						failures = append(failures, fmt.Sprintf("%s %s: set %d reads %v, set 1 %v (must repeat exactly)", w.Name, m.Name, i+1, vals[i], vals[0]))
					}
				}
			}
		}
		if o.varySeed {
			continue
		}
		for i := range sets {
			for j := range sets {
				if i != j {
					v, _ := compareReports(sets[i][w.Name], sets[j][w.Name])
					failures = append(failures, v...)
				}
			}
		}
	}
	sort.Strings(failures)
	if len(failures) == 0 {
		fmt.Fprintf(&md, "\nEvery pair of sets agrees within every metric's bound.\n")
	} else {
		fmt.Fprintf(&md, "\nOutside the bounds:\n\n")
		for _, f := range failures {
			fmt.Fprintf(&md, "- %s\n", f)
		}
	}
	fmt.Print(md.String())
	if o.aaOut != "" {
		if err := os.WriteFile(o.aaOut, []byte(md.String()), 0o644); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d comparison(s) outside the bounds", len(failures))
	}
	return nil
}
