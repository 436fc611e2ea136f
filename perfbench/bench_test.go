package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"nwforest/internal/trace"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // reversed: percentile must sort
	}
	return s
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	v, ok := percentile(seq(minSamples), 0.95)
	if !ok || v != 190 {
		t.Fatalf("p95 of 1..%d = %v ok=%v, want 190 with 10 beyond", minSamples, v, ok)
	}
	if _, ok := percentile(seq(minSamples-1), 0.95); ok {
		t.Fatal("p95 of 199 samples has only 9 beyond it but was reported ok")
	}
	if v, ok := percentile(seq(21), 0.5); !ok || v != 11 {
		t.Fatalf("median of 1..21 = %v ok=%v, want 11 ok", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported ok")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from statistics.quantiles(v, n=4) and statistics.median(v).
	cases := []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{0.9, 1.1, 1.0, 1.2, 0.8, 1.05, 0.95, 1.15, 0.85, 1.0}, 0.8875, 1.0, 1.1125},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(med-c.med) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if got := spread(seq(10)); math.Abs(got-5.5/5.5) > 1e-9 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestLatencyRunsFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	tl := newTally(15 * time.Millisecond)
	// Due at t0, fired 5ms late, done 20ms after due: the stall before
	// firing is charged to the op.
	tl.add(sample{due: t0, fired: t0.Add(5 * time.Millisecond), done: t0.Add(20 * time.Millisecond), outcome: opOK})
	if len(tl.lat) != 1 || tl.lat[0] != 20 {
		t.Fatalf("latency = %v, want [20] ms from the due time", tl.lat)
	}
	if len(tl.late) != 1 || tl.late[0] != 5 {
		t.Fatalf("generator lateness = %v, want [5] ms", tl.late)
	}
	if tl.sloFrac() != 0 {
		t.Fatalf("slo_frac = %v: a 20ms op missed a 15ms limit", tl.sloFrac())
	}
	tl.add(sample{due: t0, fired: t0, done: t0.Add(10 * time.Millisecond), outcome: opOK, hit: true})
	if tl.sloFrac() != 0.5 || len(tl.hitLat) != 1 || tl.hitLat[0] != 10 {
		t.Fatalf("slo_frac = %v hit latencies %v, want 0.5 and [10]", tl.sloFrac(), tl.hitLat)
	}
}

func TestEveryFailureCountsAgainstSuccessAndTheLimit(t *testing.T) {
	t0 := time.Unix(1000, 0)
	fast := t0.Add(time.Millisecond)
	tl := newTally(time.Second)
	for _, o := range []outcome{opOK, opRefused, opShed, opFailed, opTimedOut, opInvalid, opOK, opOK} {
		tl.add(sample{due: t0, fired: t0, done: fast, outcome: o})
	}
	if tl.attempted != 8 || tl.failed() != 5 {
		t.Fatalf("attempted=%d failed=%d, want 8 and 5", tl.attempted, tl.failed())
	}
	if tl.okFrac() != 3.0/8 || tl.sloFrac() != 3.0/8 {
		t.Fatalf("ok_frac=%v slo_frac=%v, want 3/8 each: fast failures still miss", tl.okFrac(), tl.sloFrac())
	}
	if len(tl.lat) != 3 {
		t.Fatalf("%d latency samples, want only the 3 verified ops", len(tl.lat))
	}
	if len(tl.late) != 7 {
		t.Fatalf("%d lateness samples, want 7: a shed arrival was never fired", len(tl.late))
	}
	if tl.counts[opInvalid] != 1 {
		t.Fatalf("invalid count = %d, want 1", tl.counts[opInvalid])
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := newRecorder()
	at := func(d time.Duration) time.Time { return r.t0.Add(d * time.Millisecond) }
	r.addSpan("op", -1, 1, at(0), at(100))
	r.addSpan("a", 0, 1, at(10), at(40))
	r.addSpan("b", 0, 1, at(30), at(50)) // overlaps a: the union is 10..50
	r.addSpan("c", 1, 1, at(20), at(25))
	st := r.selfTime()
	want := map[string]time.Duration{"op": 60, "a": 25, "b": 20, "c": 5}
	for n, w := range want {
		if st[n].self != w*time.Millisecond || st[n].count != 1 {
			t.Errorf("%s self = %v count %d, want %v", n, st[n].self, st[n].count, w*time.Millisecond)
		}
	}
	var nilRec *recorder
	if id := nilRec.begin("x", -1, 0); id != -1 {
		t.Fatalf("untraced begin returned %d", id)
	}
	nilRec.end(-1) // must not panic
}

func TestPhasesLieEndToEndUnderTheirParent(t *testing.T) {
	r := newRecorder()
	at := func(d time.Duration) time.Time { return r.t0.Add(d * time.Millisecond) }
	run := r.addSpan("algo.Run", -1, 1, at(0), at(100))
	r.addPhases(run, 1, []trace.PhaseStat{
		{Name: "netdecomp/class", Self: 20 * time.Millisecond},
		{Name: "core/algorithm2-class", Self: 70 * time.Millisecond},
	})
	st := r.selfTime()
	want := map[string]time.Duration{"algo.Run": 10, "netdecomp/class": 20, "core/algorithm2-class": 70}
	for n, w := range want {
		if st[n].self != w*time.Millisecond {
			t.Errorf("%s self = %v, want %v", n, st[n].self, w*time.Millisecond)
		}
	}
	var pt phaseTimes
	pt.add([]trace.PhaseStat{{Name: "core/algorithm2-class", Self: 30 * time.Millisecond}, {Name: "hpartition/peel", Self: 4 * time.Millisecond}})
	pt.add([]trace.PhaseStat{{Name: "core/algorithm2-class", Self: 10 * time.Millisecond}})
	l := newLayers()
	pt.fill(l)
	if l["core.algorithm2_ms"] != 20 || l["hpartition.ms"] != 2 || l["netdecomp.ms"] != 0 {
		t.Errorf("per-run phase means = %v %v %v, want 20 2 0", l["core.algorithm2_ms"], l["hpartition.ms"], l["netdecomp.ms"])
	}
}

func TestPhaseLayer(t *testing.T) {
	for phase, want := range map[string]string{
		"core/algorithm2-class": "core.algorithm2",
		"core/split-finalize":   "core",
		"netdecomp/class":       "netdecomp",
		"hpartition/peel":       "hpartition",
	} {
		if got := phaseLayer(phase); got != want {
			t.Errorf("phaseLayer(%q) = %q, want %q", phase, got, want)
		}
	}
}

func TestServePlanIsAFunctionOfTheSeed(t *testing.T) {
	a, wa := planServe(7, 20*time.Second)
	b, wb := planServe(7, 20*time.Second)
	if len(a) != len(b) || wa != wb {
		t.Fatalf("two plans of one seed differ in size: %d/%d vs %d/%d", len(a), wa, len(b), wb)
	}
	kinds := make(map[arrivalKind]int)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
		kinds[a[i].kind]++
	}
	if len(a) < minSamples || kinds[kindWrite] != wa || kinds[kindMiss] == 0 || kinds[kindRead] < len(a)/2 {
		t.Fatalf("plan of %d arrivals has kinds %v, writes %d", len(a), kinds, wa)
	}
	// Every full block holds exactly its share of writes and misses.
	for b := 0; b+serveBlock <= len(a); b += serveBlock {
		var w, m int
		for _, x := range a[b : b+serveBlock] {
			switch x.kind {
			case kindWrite:
				w++
			case kindMiss:
				m++
			}
		}
		if w != int(math.Round(serveWriteFrac*serveBlock)) || m != int(math.Round(serveMissFrac*serveBlock)) {
			t.Fatalf("block at %d holds %d writes and %d misses", b, w, m)
		}
	}
	if c, _ := planServe(8, 20*time.Second); len(c) == len(a) && c[0] == a[0] {
		t.Fatal("another seed gave the same plan")
	}
}

func TestBenchmarkJSONListsEveryMetricWithItsUnit(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", def.EndToEnd, e2eNames)
	same("per_layer", def.PerLayer, layerNames)
	for _, w := range def.Workloads {
		if _, ok := workloadRunners[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the program does not run", w.Name)
		}
	}
	if len(def.Workloads) != len(workloadRunners) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(def.Workloads), len(workloadRunners))
	}
}

func TestGaugeCorrectsByTheNearestChunks(t *testing.T) {
	t0 := time.Unix(1000, 0)
	g := newGauge()
	// Ten chunks at base speed, then ten at half speed, 100ms apart.
	for i := range 20 {
		c := gaugeBaseMs
		if i >= 10 {
			c *= 2
		}
		g.at = append(g.at, t0.Add(time.Duration(i)*100*time.Millisecond))
		g.ms = append(g.ms, c)
	}
	if f := g.factor(t0.Add(300 * time.Millisecond)); f != 1 {
		t.Errorf("factor in the fast part = %v, want 1", f)
	}
	if f := g.factor(t0.Add(1700 * time.Millisecond)); f != 0.5 {
		t.Errorf("factor in the slow part = %v, want 0.5", f)
	}
	if f := g.factor(t0.Add(-time.Hour)); f != 1 {
		t.Errorf("factor before every chunk = %v, want 1 from the first chunks", f)
	}
	if got := g.corrected(t0.Add(time.Hour), 40*time.Millisecond); got != 20 {
		t.Errorf("a 40ms op in the slow part corrects to %v ms, want 20", got)
	}
	var none *gauge
	if got := none.corrected(t0, 40*time.Millisecond); got != 40 {
		t.Errorf("no gauge corrects 40ms to %v, want 40", got)
	}
}

func TestIdleChunkIsDroppedWhenAnOpStarts(t *testing.T) {
	g := newGauge()
	g.begin()
	g.chunk(true)
	g.end()
	if len(g.ms) != 0 {
		t.Fatalf("an idle chunk was timed while an op was in progress")
	}
	g.chunk(true)
	g.measure()
	if len(g.ms) != 2 {
		t.Fatalf("%d chunks recorded with nothing in progress, want 2", len(g.ms))
	}
}
