package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"nwforest/internal/algo"
	"nwforest/internal/dist"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/service"
	"nwforest/internal/trace"
	"nwforest/internal/verify"
)

// libraryWorkload is a closed loop of algo.Run calls from one caller,
// cycling over a pool of same-size graphs and option seeds.
type libraryWorkload struct {
	graphs int // distinct graphs in the pool
	seeds  int // option seeds per graph
	make   func(seed uint64) *graph.Graph
	opts   algo.Options // Seed is filled per op
	limit  time.Duration
}

// decomposeDense runs dense multigraph forest unions: one giant cluster,
// so the per-color path queries of the augmenting search do nearly all
// the work, and the sampled CUT rule runs the hpartition peel on a
// dist.Engine.
var decomposeDense = libraryWorkload{
	graphs: 96, seeds: 1,
	make:  func(s uint64) *graph.Graph { return gen.ForestUnion(640, 4, s) },
	opts:  algo.Options{Alpha: 4, Eps: 0.5, Sampled: true},
	limit: 400 * time.Millisecond,
}

// decomposeRoad runs road networks: bounded degree and a large diameter
// give long monochromatic paths, more netdecomp classes and several
// clusters, and the unsampled CUT rule leaves hpartition out. A gain
// tuned to the dense unions' short paths is checked here against long
// ones.
var decomposeRoad = libraryWorkload{
	graphs: 64, seeds: 1,
	make:  func(s uint64) *graph.Graph { return gen.RoadNetwork(46, 46, s) },
	opts:  algo.Options{Alpha: 3, Eps: 0.5},
	limit: 400 * time.Millisecond,
}

// warmupOps is how many library ops a set-up runs.
const warmupOps = 8

// A run times its set-up several times, each from a collected heap,
// and setup_s is the median. The host's speed drifts over seconds, so
// the set-ups are spread over the run: setupsBefore before the timed
// part and setupsDuring at even steps of it, with its clock paused.
const (
	setupsBefore = 3
	setupsDuring = 6
)

// libOp is one pool entry: an input and an option seed.
type libOp struct {
	in   int
	seed uint64
}

func runLibrary(w libraryWorkload, cfg runConfig) (*report, error) {
	gs := make([]*graph.Graph, w.graphs)
	for i, s := range seeds(cfg.seed, 1, w.graphs) {
		gs[i] = w.make(s)
	}
	ins, err := encodeInputs(gs)
	if err != nil {
		return nil, err
	}
	optSeeds := seeds(cfg.seed, 2, w.seeds)
	pool := make([]libOp, 0, w.graphs*w.seeds)
	for s := range w.seeds {
		for i := range w.graphs {
			pool = append(pool, libOp{in: i, seed: optSeeds[s]})
		}
	}
	request := func(op libOp) algo.Request {
		req := algo.Request{Algorithm: "decompose", Options: w.opts}
		req.Options.Seed = op.seed
		return req
	}

	// Set-up: decode every input, then warm-up ops on the first pool
	// entries (several, so set-up time does not hinge on one graph).
	// A gauge chunk on either side gives its speed correction.
	gauge := newGauge()
	var setups []timed
	var decodes []float64
	setUp := func() error {
		runtime.GC()
		gauge.measure()
		start := time.Now()
		d, err := decodeInputs(ins)
		if err != nil {
			return err
		}
		for _, op := range pool[:warmupOps] {
			res, err := algo.Run(context.Background(), ins[op.in].g, request(op))
			if err == nil {
				err = checkDecomposition(ins[op.in].g, res)
			}
			if err != nil {
				return fmt.Errorf("warm-up op: %w", err)
			}
		}
		setups = append(setups, timed{start, time.Since(start)})
		decodes = append(decodes, ms(d))
		gauge.measure()
		return nil
	}
	for range setupsBefore {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	runtime.GC()

	rep := &report{e2e: make(map[string]float64)}
	if cfg.rec != nil {
		rep.layers = newLayers()
	}
	t := newTally(w.limit)
	t.gauge = gauge
	var samples []sample
	var opTime []timed // every op, for edges_per_s
	ok := 0
	first := make([]*algo.Result, len(pool))
	hashes := make([]uint64, len(pool))
	var edges int64
	var traced, untraced, verifyMs []float64
	var phases phaseTimes

	rss := startRSS()
	start := time.Now()
	var paused time.Duration // set-ups and gauge chunks inside the timed part
	nextSetup := 1
	for i := 0; ; i++ {
		elapsed := time.Since(start) - paused
		if elapsed > 3*cfg.seconds || (elapsed > cfg.seconds && ok >= minSamples) {
			break
		}
		if nextSetup <= setupsDuring && elapsed >= cfg.seconds*time.Duration(nextSetup)/(setupsDuring+1) {
			t0 := time.Now()
			if err := setUp(); err != nil {
				rss.finish()
				return nil, err
			}
			paused += time.Since(t0)
			nextSetup++
		}
		pi := i % len(pool)
		op := pool[pi]
		g := ins[op.in].g
		// A traced run alternates traced and untraced ops, flipping the
		// phase every pass over the pool so each input is seen both ways.
		rec := cfg.rec
		if (i+i/len(pool))%2 == 1 {
			rec = nil
		}
		req := int64(i)

		opStart := time.Now()
		root := rec.begin("op", -1, req)
		ctx := context.Background()
		runSpan := rec.begin("algo.Run", root, req)
		var tr *trace.Recorder
		if rec != nil {
			tr = trace.NewRecorder(strconv.Itoa(i), opStart, 0)
			tr.BeginExecution(time.Now())
			ctx = dist.WithSpans(ctx, tr)
		}
		res, runErr := algo.Run(ctx, g, request(op))
		rec.end(runSpan)
		rec.addPhases(runSpan, req, tr.Phases())
		var verr error
		if runErr == nil {
			vs := rec.begin("verify", root, req)
			t0 := time.Now()
			verr = checkDecomposition(g, res)
			if rec != nil {
				verifyMs = append(verifyMs, ms(time.Since(t0)))
			}
			rec.end(vs)
		}
		done := time.Now()
		rec.end(root)

		s := sample{due: opStart, fired: opStart, done: done, hit: first[pi] != nil}
		switch {
		case runErr != nil:
			s.outcome = opFailed
			rep.notef("op %d: %v", i, runErr)
		case verr != nil:
			s.outcome = opInvalid
			rep.notef("op %d: invalid result: %v", i, verr)
		case first[pi] == nil:
			first[pi] = res
			hashes[pi] = colorsHash(res.Decomposition.Colors)
		case colorsHash(res.Decomposition.Colors) != hashes[pi]:
			s.outcome = opInvalid
			rep.notef("op %d: input %d answered differently on a repeat", i, pi)
		}
		samples = append(samples, s)
		opTime = append(opTime, timed{opStart, done.Sub(opStart)})
		t0 := time.Now()
		gauge.measure()
		paused += time.Since(t0)
		if s.outcome != opOK {
			continue
		}
		ok++
		edges += int64(g.M())
		if rec != nil {
			traced = append(traced, ms(done.Sub(opStart)))
			phases.add(tr.Phases())
		} else {
			untraced = append(untraced, ms(done.Sub(opStart)))
		}
	}
	rssMB := rss.finish()
	for _, s := range samples {
		t.add(s)
	}
	busy := 0.0 // ms, corrected
	for _, x := range opTime {
		busy += gauge.corrected(x.mid(), x.d)
	}

	var ans []answer
	for pi, res := range first {
		if res != nil {
			ans = append(ans, answer{g: ins[pool[pi].in].g, alpha: w.opts.Alpha, dec: res.Decomposition})
		}
	}
	if err := rep.fill(t, setups, rssMB, ans); err != nil {
		return nil, err
	}
	rep.e2e["edges_per_s"] = float64(edges) / (busy / 1000)

	if l := rep.layers; l != nil {
		l["graph.decode_ms"] = median(decodes)
		phases.fill(l)
		l["verify.ms"] = mean(verifyMs)
		l["trace.overhead_frac"] = overheadFrac(traced, untraced)
		var encMs, kb []float64
		for pi, res := range first[:min(len(first), replayLimit)] {
			if res == nil {
				continue
			}
			now := time.Now()
			snap := service.JobSnapshot{
				ID: fmt.Sprintf("bench-%d", pi), State: service.JobDone, Result: res,
				CreatedAt: now, StartedAt: &now, FinishedAt: &now,
			}
			d, size, err := encodeSnapshot(snap)
			if err != nil {
				return nil, err
			}
			encMs = append(encMs, ms(d))
			kb = append(kb, float64(size)/1024)
		}
		l["service.encode_ms"] = median(encMs)
		l["service.result_kb"] = mean(kb)
		replayPaths(ans, l)
	}
	return rep, nil
}

// checkDecomposition verifies that a run's output is a forest
// decomposition of g with as many forests as it claims.
func checkDecomposition(g *graph.Graph, res *algo.Result) error {
	if res == nil || res.Decomposition == nil {
		return fmt.Errorf("no decomposition in the result")
	}
	d := res.Decomposition
	if d.NumForests < 1 {
		return fmt.Errorf("result claims %d forests", d.NumForests)
	}
	return verify.ForestDecomposition(g, d.Colors, d.NumForests)
}
