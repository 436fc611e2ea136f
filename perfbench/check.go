package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runChild runs this binary once on one workload and returns its result
// line.
func runChild(workload string, seed uint64, seconds, trace int) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	var out bytes.Buffer
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
		}
		return result{}, fmt.Errorf("%s seed %d: no result line: %w", workload, seed, err)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
	}
	return res, nil
}

// runAll runs every workload untraced and then traced, printing every
// metric by name with its unit; the last line holds all results.
func runAll(seed uint64, seconds int) int {
	all := make(map[string]map[string]result)
	code := 0
	for _, w := range workloadList() {
		all[w] = make(map[string]result)
		for trace, mode := range []string{"end_to_end", "per_layer"} {
			res, err := runChild(w, seed, seconds, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				code = 1
				continue
			}
			all[w][mode] = res
			fmt.Printf("%s %s (correct=%v attempted=%d failed=%d)\n", w, mode, res.Correct, res.Attempted, res.Failed)
			printTable(os.Stdout, res)
		}
	}
	data, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(data))
	return code
}

// benchJSONPath is the benchmark definition, relative to the repository
// root the benchmark runs from.
const benchJSONPath = "BENCHMARK.json"

// benchDef is the part of BENCHMARK.json the check reads.
type benchDef struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// checkRow is one metric's verdict over the check's runs.
type checkRow struct {
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Bound  float64   `json:"bound"`
}

// runCheck runs workload k times and prints, per end-to-end metric, the
// median, the quartiles and whether the spread (Q3-Q1)/median fits the
// metric's bound in BENCHMARK.json. The runs use seeds seed..seed+k-1,
// so the spread includes input variation, or all use seed when
// fixedSeed is set, which leaves only run-to-run noise. It returns
// non-zero if a run failed or a spread is too wide.
func runCheck(k int, workload string, seed uint64, fixedSeed bool, seconds int) int {
	if _, ok := workloadRunners[workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: --check needs one workload of %v\n", workloadList())
		return 2
	}
	data, err := os.ReadFile(benchJSONPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", benchJSONPath, err)
		return 2
	}
	code := 0
	values := make(map[string][]float64)
	for i := range k {
		s := seed + uint64(i)
		if fixedSeed {
			s = seed
		}
		res, err := runChild(workload, s, seconds, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			code = 1
			continue
		}
		for n, m := range res.Metrics {
			values[n] = append(values[n], m.Value)
		}
	}
	rows := make(map[string]checkRow)
	fmt.Printf("%-14s %12s %12s %12s %8s %7s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, e := range def.EndToEnd {
		vs := values[e.Name]
		q1, med, q3 := quartiles(vs)
		row := checkRow{Values: vs, Q1: q1, Median: med, Q3: q3, Spread: spread(vs), Bound: e.Bound}
		rows[e.Name] = row
		verdict := "steady"
		switch {
		case len(vs) == 0:
			verdict, code = "MISSING", 1
		case row.Spread > e.Bound:
			verdict, code = "TOO WIDE", 1
		case row.Spread > e.Bound/3:
			verdict = "within bound, above a third of it"
		}
		fmt.Printf("%-14s %12.6g %12.6g %12.6g %8.4f %7.3f  %s\n", e.Name, q1, med, q3, row.Spread, e.Bound, verdict)
	}
	out, err := json.Marshal(rows)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return code
}
