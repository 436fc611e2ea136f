package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"nwforest/internal/trace"
)

// span is one timed call into a layer, made from the benchmark's own
// code. Spans of one op share Req; Parent is the enclosing span's ID
// (-1 for an op's root).
type span struct {
	ID     int32         `json:"id"`
	Parent int32         `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced path: every method is a no-op.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (-1 when r is nil).
func (r *recorder) begin(name string, parent int32, req int64) int32 {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// addSpan records an already-closed span from absolute times and
// returns its ID (-1 when r is nil).
func (r *recorder) addSpan(name string, parent int32, req int64, start, end time.Time) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	return id
}

// selfTime returns, per span name, the summed self time (duration minus
// what child spans cover) and the span count. Unclosed spans are skipped.
func (r *recorder) selfTime() map[string]layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int32][]span)
	for _, s := range r.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range r.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - covered(s, children[s.ID])
		lt := out[s.Name]
		lt.self += self
		lt.count++
		out[s.Name] = lt
	}
	return out
}

type layerTime struct {
	self  time.Duration
	count int
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	lo, hi := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			total += hi - lo
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	return total + hi - lo
}

// printSelfTime writes the per-layer self-time table.
func (r *recorder) printSelfTime(w io.Writer) {
	st := r.selfTime()
	names := make([]string, 0, len(st))
	var total time.Duration
	for n, lt := range st {
		names = append(names, n)
		total += lt.self
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]].self > st[names[j]].self })
	fmt.Fprintf(w, "%-28s %8s %12s %10s %7s\n", "span", "count", "self_ms", "mean_ms", "share")
	for _, n := range names {
		lt := st[n]
		fmt.Fprintf(w, "%-28s %8d %12.2f %10.4f %6.1f%%\n", n, lt.count, ms(lt.self),
			ms(lt.self)/float64(lt.count), 100*float64(lt.self)/float64(max(total, 1)))
	}
}

// write stores every span as JSON at path, creating its directory.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// addPhases records an algorithm run's phases, as a trace.Recorder
// installed with dist.WithSpans attributed them, as children of span
// parent. A phase charged several times has no single interval, so the
// spans are laid end to end from the parent's start in first-charge
// order: their lengths are the phases' self times, their positions are
// not the times the work ran.
func (r *recorder) addPhases(parent int32, req int64, phases []trace.PhaseStat) {
	if r == nil || parent < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	at := r.spans[parent].Start
	for _, p := range phases {
		id := int32(len(r.spans))
		r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: p.Name, Start: at, End: at + p.Self})
		at += p.Self
	}
}

// phaseTimes sums algorithm runs' phase self times per layer.
type phaseTimes struct {
	runs int
	ms   map[string]float64
}

func (t *phaseTimes) add(phases []trace.PhaseStat) {
	if t.ms == nil {
		t.ms = make(map[string]float64)
	}
	t.runs++
	for _, p := range phases {
		t.ms[phaseLayer(p.Name)] += ms(p.Self)
	}
}

// fill sets the per-run mean self time of each phase layer.
func (t *phaseTimes) fill(layers map[string]float64) {
	for layer, name := range map[string]string{
		"hpartition": "hpartition.ms", "netdecomp": "netdecomp.ms", "core.algorithm2": "core.algorithm2_ms",
	} {
		layers[name] = t.ms[layer] / float64(max(t.runs, 1))
	}
}

// phaseLayer maps a cost phase name to the layer it is reported under:
// "core/algorithm2-class" -> "core.algorithm2", "netdecomp/class" ->
// "netdecomp".
func phaseLayer(phase string) string {
	mod, sub, _ := strings.Cut(phase, "/")
	if mod == "core" && strings.HasPrefix(sub, "algorithm2") {
		return "core.algorithm2"
	}
	return mod
}
