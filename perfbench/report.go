package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// report is one workload run's outcome.
type report struct {
	attempted, failed, invalid int
	e2e                        map[string]float64
	layers                     map[string]float64 // nil in an untraced run
	notes                      []string
}

// maxNotes bounds how many per-op problems a run keeps for stderr.
const maxNotes = 20

func (r *report) notef(format string, args ...any) {
	if len(r.notes) < maxNotes {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// fill sets the metrics every workload computes the same way.
// Times are corrected for the host's speed by t's gauge; the notes give
// them as measured too.
func (r *report) fill(t *tally, setups []timed, rssMB float64, ans []answer) error {
	r.attempted, r.failed, r.invalid = t.attempted, t.failed(), t.counts[opInvalid]
	p50, _ := percentile(t.lat, 0.50)
	p95, ok := percentile(t.lat, 0.95)
	if !ok {
		return fmt.Errorf("only %d verified ops of %d attempted (%s); p95 needs %d",
			len(t.lat), t.attempted, t.outcomes(), minSamples)
	}
	var setupS, rawS []float64
	for _, x := range setups {
		setupS = append(setupS, t.gauge.corrected(x.mid(), x.d)/1000)
		rawS = append(rawS, x.d.Seconds())
	}
	r.e2e["setup_s"] = median(setupS)
	raw50, _ := percentile(t.raw, 0.50)
	raw95, _ := percentile(t.raw, 0.95)
	r.notes = append(r.notes,
		fmt.Sprintf("host slowdown %.3f; as measured: p50 %.3f ms, p95 %.3f ms, setup %.3f s",
			t.gauge.slowdown(), raw50, raw95, median(rawS)),
		fmt.Sprintf("set-ups took %.3f s as measured, %.3f s corrected", rawS, setupS))
	r.e2e["ok_frac"] = t.okFrac()
	r.e2e["p50_ms"] = p50
	r.e2e["p95_ms"] = p95
	r.e2e["hit_p50_ms"] = median(t.hitLat)
	r.e2e["slo_frac"] = t.sloFrac()
	r.e2e["rss_mb"] = rssMB
	resultMetrics(ans, r.e2e, r.layers)
	if r.layers != nil {
		late, _ := percentile(t.late, 0.95)
		r.layers["bench.gen_late_p95_ms"] = late
		r.layers["bench.samples"] = float64(len(t.lat))
		r.layers["bench.host_slowdown"] = t.gauge.slowdown()
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the run's result line: the end-to-end metrics, or the
// per-layer ones for a traced run.
func (r *report) result() result {
	names := e2eNames
	vals := r.e2e
	if r.layers != nil {
		names, vals = layerNames, r.layers
	}
	out := result{
		Correct:   r.invalid == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(names)),
	}
	for _, n := range names {
		v := vals[n.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[n.name] = metricValue{Value: v, Unit: n.unit}
	}
	return out
}

// printTable writes every metric of res by name with its unit.
func printTable(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

func writeResult(w io.Writer, res result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
