package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"time"

	"nwforest/internal/algo"
	"nwforest/internal/forest"
	"nwforest/internal/graph"
	"nwforest/internal/rng"
	"nwforest/internal/service"
)

// input is one generated graph: the bytes the program is handed and the
// graph the program decoded from them during set-up.
type input struct {
	raw    []byte
	g      *graph.Graph
	format graph.Format // as DecodeAuto detected it
}

// encodeInputs renders generated graphs in the plain text format; the
// program only ever sees these bytes.
func encodeInputs(gs []*graph.Graph) ([]input, error) {
	ins := make([]input, len(gs))
	for i, g := range gs {
		var buf bytes.Buffer
		if err := graph.Encode(&buf, g); err != nil {
			return nil, fmt.Errorf("encode input %d: %w", i, err)
		}
		ins[i].raw = buf.Bytes()
	}
	return ins, nil
}

// decodeInputs runs graph.DecodeAuto over every input and returns the
// time it took.
func decodeInputs(ins []input) (time.Duration, error) {
	start := time.Now()
	for i := range ins {
		g, f, err := graph.DecodeAuto(bytes.NewReader(ins[i].raw))
		if err != nil {
			return 0, fmt.Errorf("decode input %d: %w", i, err)
		}
		ins[i].g, ins[i].format = g, f
	}
	return time.Since(start), nil
}

// seeds derives n distinct 64-bit seeds for one purpose from the
// benchmark seed.
func seeds(seed, purpose uint64, n int) []uint64 {
	src := rng.New(seed).Split(purpose)
	out := make([]uint64, n)
	for i := range out {
		out[i] = src.Split(uint64(i)).Uint64()
	}
	return out
}

// colorsHash fingerprints a coloring, so a repeated input can be checked
// to give the bit-identical answer.
func colorsHash(colors []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, c := range colors {
		b[0], b[1], b[2], b[3] = byte(c), byte(c>>8), byte(c>>16), byte(c>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// rssEvery is how often the timed part samples the resident set size.
const rssEvery = 100 * time.Millisecond

// rssSampler samples the process's resident set size in the background
// while a run is timed. Its median is steadier than the peak, which
// rests on the single largest allocation burst of a run.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64 // MiB
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if mb, err := residentMB(); err == nil {
				s.samples = append(s.samples, mb)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it and returns the median sample.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return median(s.samples)
}

// residentMB reads the current resident set size from /proc.
func residentMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm")
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), nil
}

// answer is one distinct computation's result, for the metrics that are
// a pure function of the inputs.
type answer struct {
	g     *graph.Graph
	alpha int
	dec   *algo.Decomposition
}

// resultMetrics summarizes the deterministic quality and round counts
// over distinct answers and fills the per-phase round and message layers.
func resultMetrics(ans []answer, e2e, layers map[string]float64) {
	var ratio float64
	rounds := make([]float64, 0, len(ans))
	var hpRounds, hpMsgs, ndRounds, a2Rounds float64
	for _, a := range ans {
		ratio += float64(a.dec.NumForests) / float64(a.alpha)
		rounds = append(rounds, float64(a.dec.Rounds))
		for _, p := range a.dec.Phases {
			switch phaseLayer(p.Name) {
			case "hpartition":
				hpRounds += float64(p.Rounds)
				hpMsgs += float64(p.Messages)
			case "netdecomp":
				ndRounds += float64(p.Rounds)
			case "core.algorithm2":
				a2Rounds += float64(p.Rounds)
			}
		}
	}
	n := float64(max(len(ans), 1))
	e2e["forest_ratio"] = ratio / n
	// The median: a few inputs need extra rounds, and how many of them a
	// pool holds varies by seed enough to move a mean by several percent.
	e2e["local_rounds"] = median(rounds)
	if layers != nil {
		layers["hpartition.rounds"] = hpRounds / n
		layers["hpartition.msgs"] = hpMsgs / n
		layers["netdecomp.rounds"] = ndRounds / n
		layers["core.algorithm2_rounds"] = a2Rounds / n
	}
}

// replayLimit caps how many distinct answers the path-query replay and
// the encode measurement visit, keeping a traced run's tail short.
const replayLimit = 8

// replayPaths re-asks the augmenting search's question on each answer:
// PathInColor(c, u, v) for every edge (u, v) and every color c other
// than its own, on forest.FromColors of the answer. The counts are a
// pure function of the answers; the time per query is what an O(path)
// query structure would cut.
func replayPaths(ans []answer, layers map[string]float64) {
	var queries, misses, hitEdges, compVerts int64
	var elapsed time.Duration
	for _, a := range ans[:min(len(ans), replayLimit)] {
		st := forest.FromColors(a.g, a.dec.Colors)
		k := a.dec.NumForests
		n := a.g.N()
		// Component sizes per color, labeled once so each query can be
		// charged the size of the tree it searches.
		label := make([][]int32, k)
		size := make([][]int32, k)
		for c := range k {
			label[c] = make([]int32, n)
			for v := range label[c] {
				label[c][v] = -1
			}
			for v := range n {
				if label[c][v] >= 0 {
					continue
				}
				comp := st.ComponentInColor(int32(c), int32(v))
				id := int32(len(size[c]))
				for _, x := range comp {
					label[c][x] = id
				}
				size[c] = append(size[c], int32(len(comp)))
			}
		}
		start := time.Now()
		for id, e := range a.g.Edges() {
			own := a.dec.Colors[id]
			for c := range int32(k) {
				if c == own {
					continue
				}
				p := st.PathInColor(c, e.U, e.V, nil)
				queries++
				if p == nil {
					misses++
				} else {
					hitEdges += int64(len(p))
				}
				compVerts += int64(size[c][label[c][e.U]])
			}
		}
		elapsed += time.Since(start)
	}
	if queries == 0 {
		return
	}
	layers["forest.path_query_us"] = float64(elapsed) / float64(time.Microsecond) / float64(queries)
	layers["forest.path_miss_frac"] = float64(misses) / float64(queries)
	layers["forest.path_edges"] = float64(hitEdges) / float64(max(queries-misses, 1))
	layers["forest.component_vertices"] = float64(compVerts) / float64(queries)
}

// encodeRuns is how many times each snapshot is marshaled; the median
// is kept.
const encodeRuns = 5

// encodeSnapshot times json.Marshal of a completed job snapshot, the
// body a cache hit writes, and returns the median time and the size.
func encodeSnapshot(snap service.JobSnapshot) (time.Duration, int, error) {
	var times []float64
	size := 0
	for range encodeRuns {
		start := time.Now()
		data, err := json.Marshal(snap)
		if err != nil {
			return 0, 0, fmt.Errorf("marshal job snapshot: %w", err)
		}
		times = append(times, float64(time.Since(start)))
		size = len(data)
	}
	return time.Duration(median(times)), size, nil
}

// layerNames lists every per-layer metric with its unit. A layer a
// workload does not cross reports 0.
var layerNames = []struct{ name, unit string }{
	{"graph.decode_ms", "ms"},
	{"service.ingest_ms", "ms"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.queue_wait_p95_ms", "ms"},
	{"service.run_p50_ms", "ms"},
	{"service.cache_hit_frac", "frac"},
	{"service.dedups", "count"},
	{"service.encode_ms", "ms"},
	{"service.result_kb", "KiB"},
	{"service.http_overhead_ms", "ms"},
	{"hpartition.ms", "ms"},
	{"hpartition.rounds", "rounds"},
	{"hpartition.msgs", "count"},
	{"netdecomp.ms", "ms"},
	{"netdecomp.rounds", "rounds"},
	{"core.algorithm2_ms", "ms"},
	{"core.algorithm2_rounds", "rounds"},
	{"forest.path_query_us", "us"},
	{"forest.path_miss_frac", "frac"},
	{"forest.path_edges", "edges"},
	{"forest.component_vertices", "vertices"},
	{"verify.ms", "ms"},
	{"trace.overhead_frac", "frac"},
	{"bench.gen_late_p95_ms", "ms"},
	{"bench.samples", "count"},
	{"bench.host_slowdown", "x"},
}

// e2eNames lists every end-to-end metric with its unit.
var e2eNames = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ok_frac", "frac"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"slo_frac", "frac"},
	{"edges_per_s", "edges/s"},
	{"forest_ratio", "ratio"},
	{"local_rounds", "rounds"},
	{"rss_mb", "MiB"},
}

// overheadFrac compares traced ops' median latency with untraced ops'.
func overheadFrac(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return median(traced)/median(untraced) - 1
}

// newLayers returns every per-layer metric at 0.
func newLayers() map[string]float64 {
	m := make(map[string]float64, len(layerNames))
	for _, l := range layerNames {
		m[l.name] = 0
	}
	return m
}

// shortID abbreviates a graph ID for error messages.
func shortID(id string) string {
	if i := strings.IndexByte(id, ':'); i >= 0 && len(id) > i+13 {
		return id[:i+13]
	}
	return id
}
