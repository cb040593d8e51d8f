// Command mpgraph-bench converts `go test -bench` text output into a small
// machine-readable JSON report (BENCH_small.json) so CI can archive
// benchmark results and the precision-tier speedup claims in DESIGN.md stay
// reproducible from a committed artifact.
//
// One variant-suffix convention drives the "speedups" section. A benchmark
// whose name contains "F32" or "F16" is paired with the benchmark named by
// deleting that substring (BenchmarkOperateMPGraphAMMAF32 pairs with
// BenchmarkOperateMPGraphAMMA) and reported as float64 baseline over
// variant, so >1 means the reduced-precision tier wins.
//
// The report header records the measurement environment (go version, OS,
// architecture, GOMAXPROCS, CPU count) so consumers can tell when two
// reports were taken on different machines.
//
// Compare mode turns the report into a CI perf gate:
//
//	mpgraph-bench -compare old.json new.json
//
// exits non-zero when any benchmark regresses more than 15% in ns/op, a
// zero-alloc benchmark gains an allocation, or an allocating one more than 15%
// of its count. When the two reports' environments differ, ns/op is not
// comparable and only the allocation check is enforced (with a warning).
//
// Usage:
//
//	go test ./... -bench . -benchtime 1x -run xxx | mpgraph-bench -o BENCH_small.json
//	mpgraph-bench -in bench.txt -o BENCH_small.json
//	mpgraph-bench -compare BENCH_small.json BENCH_new.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line. Metrics holds the units a benchmark
// reports with b.ReportMetric (retained-B), keyed by unit.
type Result struct {
	Pkg         string             `json:"pkg"`
	Name        string             `json:"name"`
	Iters       int64              `json:"iters"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Speedup reports a baseline/variant benchmark pair as a wall-time ratio.
// BaseNs is the float64 baseline, FastNs the reduced-precision variant.
type Speedup struct {
	Name    string  `json:"name"`
	FastNs  float64 `json:"fast_ns_per_op"`
	BaseNs  float64 `json:"base_ns_per_op"`
	Speedup float64 `json:"speedup"`
}

// Env captures the machine and runtime configuration a report was measured
// under. Two reports with different Envs have incomparable ns/op numbers.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

func currentEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// Report is the BENCH_small.json document.
type Report struct {
	Env        Env       `json:"env"`
	Benchmarks []Result  `json:"benchmarks"`
	Speedups   []Speedup `json:"speedups"`
}

func main() {
	var (
		in      = flag.String("in", "", "bench output file (default stdin)")
		out     = flag.String("o", "BENCH_small.json", "output JSON path")
		compare = flag.Bool("compare", false, "compare two report files (old new); exit non-zero on regressions")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs exactly two arguments: old.json new.json")
		}
		oldRep, err := loadReport(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		newRep, err := loadReport(flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if n := compareReports(os.Stderr, oldRep, newRep); n > 0 {
			fatalf("%d benchmark regression(s) against %s", n, flag.Arg(0))
		}
		fmt.Fprintf(os.Stderr, "mpgraph-bench: no regressions against %s\n", flag.Arg(0))
		return
	}

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		r = f
	}

	results, err := parseBench(r)
	if err != nil {
		fatalf("%v", err)
	}
	if len(results) == 0 {
		fatalf("no benchmark lines found in input")
	}

	collapsed := collapse(results)
	report := Report{Env: currentEnv(), Benchmarks: collapsed, Speedups: pairSpeedups(collapsed)}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatalf("encode report: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "mpgraph-bench: wrote %s (%d benchmarks, %d speedup pairs)\n",
		*out, len(report.Benchmarks), len(report.Speedups))
}

// loadReport reads one JSON report written by a previous run.
func loadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// collapse merges repeated `-count` runs of the same benchmark into one
// entry. ns/op takes the best run: timing noise (scheduler steal, frequency
// dips, cache pollution from a co-tenant) only ever slows a run down, so
// min-of-N estimates the true cost far more stably than a mean — which
// matters on the single-core VMs the compare gate runs on. Allocation and
// byte counts take the best run too, for the same reason: the runtime's own
// allocations in the timed region (runtime.newm starting an OS thread) only
// ever add, while an allocation the code makes happens in every run and so
// still shows. Reported metrics, all of them byte counts, take the worst run;
// iterations are summed.
func collapse(results []Result) []Result {
	index := map[string]int{}
	var out []Result
	for _, r := range results {
		key := r.Pkg + " " + r.Name
		i, ok := index[key]
		if !ok {
			index[key] = len(out)
			out = append(out, r)
			continue
		}
		a := &out[i]
		a.Iters += r.Iters
		a.NsPerOp = min(a.NsPerOp, r.NsPerOp)
		a.BytesPerOp = min(a.BytesPerOp, r.BytesPerOp)
		a.AllocsPerOp = min(a.AllocsPerOp, r.AllocsPerOp)
		for unit, v := range r.Metrics {
			if a.Metrics == nil {
				a.Metrics = map[string]float64{}
			}
			if old, ok := a.Metrics[unit]; !ok || v > old {
				a.Metrics[unit] = v
			}
		}
	}
	return out
}

// regressionThreshold is how much slower (ns/op) a benchmark may get before
// the compare gate fails. A zero-alloc row has no allocation threshold: the
// inference path promises zero allocs, so any gain is a regression. A row that
// allocates by design (a train step's graph headers, a suite's 0.8 M objects —
// counts the runtime's own background allocations move by a few per run) is
// held to the same ratio as its time.
const regressionThreshold = 1.15

// compareReports checks every benchmark of old against new, writing one line
// per finding, and returns the regression count. A benchmark missing from
// new is reported but not failed — suites evolve — while an environment
// mismatch downgrades the gate to allocation checks only, because ns/op
// measured on different machines is noise.
func compareReports(w io.Writer, old, new Report) int {
	sameEnv := old.Env == new.Env
	if !sameEnv {
		fmt.Fprintf(w, "mpgraph-bench: environment mismatch (old %+v, new %+v); enforcing allocation checks only\n",
			old.Env, new.Env)
	}
	index := map[string]Result{}
	for _, r := range new.Benchmarks {
		index[r.Pkg+" "+r.Name] = r
	}
	regressions := 0
	for _, o := range old.Benchmarks {
		n, ok := index[o.Pkg+" "+o.Name]
		if !ok {
			fmt.Fprintf(w, "mpgraph-bench: %s missing from new report (not failed)\n", o.Name)
			continue
		}
		if float64(n.AllocsPerOp) > float64(o.AllocsPerOp)*regressionThreshold {
			fmt.Fprintf(w, "mpgraph-bench: REGRESSION %s allocs/op %d -> %d\n", o.Name, o.AllocsPerOp, n.AllocsPerOp)
			regressions++
		}
		if sameEnv && o.NsPerOp > 0 && n.NsPerOp > o.NsPerOp*regressionThreshold {
			fmt.Fprintf(w, "mpgraph-bench: REGRESSION %s ns/op %.0f -> %.0f (+%.1f%%)\n",
				o.Name, o.NsPerOp, n.NsPerOp, 100*(n.NsPerOp/o.NsPerOp-1))
			regressions++
		}
	}
	return regressions
}

// parseBench extracts benchmark result lines, tracking the enclosing
// package from the `pkg:` header lines `go test` prints.
func parseBench(r io.Reader) ([]Result, error) {
	var results []Result
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		// `ok <pkg> <time>` trailers also carry the package, covering
		// inputs where -bench output was filtered down to result lines.
		if rest, ok := strings.CutPrefix(line, "ok "); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				pkg = f[0]
			}
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, ok := parseBenchLine(pkg, line)
		if !ok {
			return nil, fmt.Errorf("malformed benchmark line: %q", line)
		}
		results = append(results, res)
	}
	return results, sc.Err()
}

// parseBenchLine parses one `Benchmark<Name>[-P] <iters> <ns> ns/op
// [<v> <unit>]... [<B> B/op] [<allocs> allocs/op]` line.
func parseBenchLine(pkg, line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || f[3] != "ns/op" {
		return Result{}, false
	}
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the -GOMAXPROCS suffix when present.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	ns, err := strconv.ParseFloat(f[2], 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Pkg: pkg, Name: name, Iters: iters, NsPerOp: ns}
	for i := 4; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch unit := f[i+1]; unit {
		case "B/op":
			res.BytesPerOp = int64(v)
		case "allocs/op":
			res.AllocsPerOp = int64(v)
		default:
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = v
		}
	}
	return res, true
}

// variantSuffixes are the name substrings that mark a reduced-precision
// variant of the benchmark named without them: the f32 compute tier and the
// f16 snapshot storage tier.
var variantSuffixes = []string{"F32", "F16"}

// pairSpeedups matches each variant-suffixed benchmark with its float64
// counterpart, the name minus the suffix. Callers pass collapsed results (one
// entry per name); any repeats still present are averaged before pairing.
func pairSpeedups(results []Result) []Speedup {
	type agg struct {
		sum float64
		n   int
	}
	mean := map[string]*agg{}
	var order []string
	for _, r := range results {
		a := mean[r.Name]
		if a == nil {
			a = &agg{}
			mean[r.Name] = a
			order = append(order, r.Name)
		}
		a.sum += r.NsPerOp
		a.n++
	}
	avg := func(a *agg) float64 { return a.sum / float64(a.n) }
	var out []Speedup
	for _, name := range order {
		for _, suffix := range variantSuffixes {
			if !strings.Contains(name, suffix) {
				continue
			}
			base, ok := mean[strings.Replace(name, suffix, "", 1)]
			if fastNs := avg(mean[name]); ok && fastNs > 0 {
				out = append(out, Speedup{
					Name:    strings.TrimPrefix(name, "Benchmark"),
					FastNs:  fastNs,
					BaseNs:  avg(base),
					Speedup: avg(base) / fastNs,
				})
			}
			break
		}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mpgraph-bench: "+format+"\n", args...)
	os.Exit(1)
}
