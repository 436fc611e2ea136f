// Command perfbench is the repository's benchmark. One run drives one
// workload through the program's public functions, checks every output,
// and prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": 312, "failed": 0, "metrics": {"p50_ms": {"value": 96.1, "unit": "ms"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run alternates traced and untraced ops, records spans around every
// layer call in memory, writes them out at the end, prints per-layer
// self time to standard error and reports the per-layer metrics.
//
// From the repository root:
//
//	bash perfbench/run.sh --workload decompose-dense --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 30
//	bash perfbench/run.sh --check 10 --workload serve-mix --seed 1 --seconds 30
//
// --workload all runs every workload untraced and traced and prints all
// metrics; --check k runs one workload k times on seeds seed..seed+k-1
// (or k times on --seed with --fixed-seed) and judges each end-to-end
// metric's spread against its bound in BENCHMARK.json. perfbench/NOTES.md describes the workloads and what
// each metric is predicted to follow.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// maxProcs is the GOMAXPROCS every run uses. One: on the shared 2-vCPU
// machine the bounds were set on, runs with two Ps slowed by 20-35% with
// tails up to 3x whenever the host was busy (a stop-the-world or a
// worker-pool barrier waits for a descheduled vCPU), while one P stayed
// within a few percent. It also keeps larger machines comparable.
const maxProcs = 1

type runConfig struct {
	seed    uint64
	seconds time.Duration
	rec     *recorder // nil: untraced
}

var workloadRunners = map[string]func(runConfig) (*report, error){
	"decompose-dense": func(c runConfig) (*report, error) { return runLibrary(decomposeDense, c) },
	"decompose-road":  func(c runConfig) (*report, error) { return runLibrary(decomposeRoad, c) },
	"serve-mix":       runServe,
}

func workloadList() []string {
	names := make([]string, 0, len(workloadRunners))
	for n := range workloadRunners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	workload := flag.String("workload", "", "workload to run, or all: "+fmt.Sprint(workloadList()))
	seed := flag.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 30, "how long one run measures")
	traced := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	check := flag.Int("check", 0, "run the workload this many times on consecutive seeds and judge the spread")
	fixedSeed := flag.Bool("fixed-seed", false, "with --check, run every time on --seed")
	flag.Parse()

	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	switch {
	case *check > 0:
		os.Exit(runCheck(*check, *workload, *seed, *fixedSeed, *seconds))
	case *workload == "all":
		os.Exit(runAll(*seed, *seconds))
	}
	run, ok := workloadRunners[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v or all)\n", *workload, workloadList())
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *traced == 1 {
		cfg.rec = newRecorder()
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n",
		*workload, *seed, *seconds, *traced, runtime.GOMAXPROCS(0))
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, "note:", n)
	}
	if cfg.rec != nil {
		cfg.rec.printSelfTime(os.Stderr)
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.json", *workload, *seed))
		if err := cfg.rec.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "spans written to", path)
	}
	res := rep.result()
	fmt.Fprintf(os.Stderr, "attempted=%d failed=%d invalid=%d\n", rep.attempted, rep.failed, rep.invalid)
	printTable(os.Stderr, res)
	if err := writeResult(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d ops returned invalid results\n", rep.invalid)
		os.Exit(1)
	}
}
