package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"nwforest/internal/algo"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/load"
	"nwforest/internal/rng"
	"nwforest/internal/service"
	"nwforest/internal/trace"
)

// serve-mix: an open loop over HTTP against an in-process nwserve.
// Graph shape, popularity and the option-seed pool are cmd/nwload's
// defaults; the rate and the class shares are this benchmark's own
// choices (perfbench/NOTES.md gives the reasons).
const (
	serveGraphs    = 4    // nwload -graphs: uploaded at set-up, drawn Zipf-popular
	serveVertices  = 512  // nwload -min-n: every graph's size
	serveForests   = 3    // nwload -forests: forest-union arboricity
	serveSeeds     = 4    // nwload -seeds: option-seed pool, small so repeats are common
	serveZipfS     = 1.1  // nwload -zipf: popularity exponent over the graphs
	serveRate      = 20.0 // arrivals per second
	serveWriteFrac = 0.03 // upload a fresh graph, then decompose it
	serveMissFrac  = 0.10 // a fresh option seed: computed, then cached
	// serveBlock is how many consecutive arrivals hold exactly the
	// write and miss shares, so every run computes as many jobs.
	serveBlock = 100
	serveLimit = 150 * time.Millisecond
	// serveShedAfter drops an arrival the generator could not fire
	// within this long of its due time, so a stalled server cannot pile
	// up an unbounded backlog.
	serveShedAfter = 2 * time.Second
	// serveDrain bounds how long ops may run past the last arrival.
	serveDrain = 30 * time.Second
	// serveConns is how many sender goroutines, each with one HTTP
	// connection, fire the schedule: two, so a long poll for a computed
	// job does not hold up the hits behind it.
	serveConns = 2
	// servePollWait is the long-poll interval for computed jobs.
	servePollWait = 10 * time.Second
)

var serveOpts = algo.Options{Alpha: serveForests + 1, Eps: 0.5}

type arrivalKind int

const (
	kindRead  arrivalKind = iota // a pool graph and a pool seed
	kindMiss                     // a pool graph and a fresh seed
	kindWrite                    // a fresh graph, uploaded by the op
)

var kindNames = [...]string{"read", "miss", "write"}

// arrival is one scheduled op; the whole schedule is a pure function of
// the seed.
type arrival struct {
	due   time.Duration
	kind  arrivalKind
	graph int // pool index, or fresh-graph index for writes
	seed  uint64
}

// planServe draws the arrival schedule and the fresh graphs writes
// upload. Each block of serveBlock arrivals holds exactly its share of
// writes and misses, at shuffled positions.
func planServe(seed uint64, seconds time.Duration) ([]arrival, int) {
	sched := load.Arrivals(serveRate, seconds, seed)
	zipf := load.NewZipf(serveGraphs, serveZipfS)
	base := rng.New(seed).Split(3)
	classSrc, graphSrc, seedSrc := base.Split(1), base.Split(2), base.Split(3)
	pool := servePoolSeeds(seed)
	out := make([]arrival, len(sched))
	writes := 0
	for b := 0; b < len(sched); b += serveBlock {
		size := min(serveBlock, len(sched)-b)
		nw := int(math.Round(serveWriteFrac * float64(size)))
		nm := int(math.Round(serveMissFrac * float64(size)))
		for k, j := range classSrc.Perm(size) {
			i := b + j
			a := arrival{due: sched[i], graph: zipf.Draw(graphSrc), seed: pool[seedSrc.Intn(serveSeeds)]}
			switch {
			case k < nw:
				a.kind, a.graph, a.seed = kindWrite, -1, pool[0]
			case k < nw+nm:
				a.kind, a.seed = kindMiss, 1<<40+uint64(i)
			}
			out[i] = a
		}
	}
	// Fresh graphs are numbered in arrival order.
	for i := range out {
		if out[i].kind == kindWrite {
			out[i].graph = writes
			writes++
		}
	}
	return out, writes
}

// servePoolSeeds is the option-seed pool reads draw from.
func servePoolSeeds(seed uint64) []uint64 { return seeds(seed, 4, serveSeeds) }

// server is one in-process nwserve on a loopback listener.
type server struct {
	svc    *service.Service
	srv    *http.Server
	base   string
	client *http.Client
	served chan error

	stopOnce sync.Once
	stopErr  error
}

func startServer() (*server, error) {
	svc := service.New(service.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close(context.Background())
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		svc:  svc,
		srv:  &http.Server{Handler: service.NewHTTPHandler(svc)},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		}},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP server and the service down and waits for both.
// Later calls return the first call's error.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.client.CloseIdleConnections()
		err := s.srv.Shutdown(ctx)
		if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		if cerr := s.svc.Close(ctx); err == nil {
			err = cerr
		}
		s.stopErr = err
	})
	return s.stopErr
}

// upload POSTs an input's bytes and checks the returned content
// address: SHA-256 over the format name, a NUL and the bytes.
func (s *server) upload(ctx context.Context, in input) (string, error) {
	status, body, err := s.call(ctx, http.MethodPost, "/graphs", "text/plain", in.raw)
	if err != nil {
		return "", fmt.Errorf("upload: %w", err)
	}
	if status != http.StatusCreated {
		return "", fmt.Errorf("upload: status %d: %s", status, bytes.TrimSpace(body))
	}
	var info service.GraphInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return "", fmt.Errorf("upload: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(in.format))
	h.Write([]byte{0})
	h.Write(in.raw)
	if want := "sha256:" + hex.EncodeToString(h.Sum(nil)); info.ID != want {
		return "", fmt.Errorf("upload: service named the graph %s, its content address is %s", shortID(info.ID), shortID(want))
	}
	return info.ID, nil
}

// errRefused marks a 503 answer.
var errRefused = errors.New("refused with 503")

// call does one HTTP exchange and returns the status and whole body.
func (s *server) call(ctx context.Context, method, path, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// serveOp is what one op learned beyond its sample.
type serveOp struct {
	g       *graph.Graph         // the graph the op asked about
	snap    *service.JobSnapshot // the final snapshot of a verified op
	traced  bool
	ingest  time.Duration     // POST /graphs time of a write
	postHit time.Duration     // POST /jobs time of a cache hit
	phases  []trace.PhaseStat // the service's phase trace of a traced computed job
	verify  time.Duration
}

// jobAnswer is how one job ended.
type jobAnswer struct {
	snap *service.JobSnapshot
	hit  bool          // POST answered 200 with the cached result
	post time.Duration // the POST /jobs round trip
	// waitSpan is the span the answer arrived in: the last poll, or the
	// POST when it answered at once.
	waitSpan int32
}

// job submits spec and follows it to a terminal snapshot.
func (s *server) job(ctx context.Context, rec *recorder, root int32, req int64, spec service.JobSpec) (jobAnswer, error) {
	var ans jobAnswer
	body, err := json.Marshal(spec)
	if err != nil {
		return ans, err
	}
	ans.waitSpan = rec.begin("http.post_job", root, req)
	start := time.Now()
	status, data, err := s.call(ctx, http.MethodPost, "/jobs", "application/json", body)
	ans.post = time.Since(start)
	rec.end(ans.waitSpan)
	switch {
	case err != nil:
		return ans, err
	case status == http.StatusServiceUnavailable:
		return ans, errRefused
	case status != http.StatusOK && status != http.StatusAccepted:
		return ans, fmt.Errorf("POST /jobs: status %d: %s", status, bytes.TrimSpace(data))
	}
	hit := status == http.StatusOK
	var snap *service.JobSnapshot
	for {
		sp := rec.begin("json.decode", root, req)
		snap = new(service.JobSnapshot)
		err := json.Unmarshal(data, snap)
		rec.end(sp)
		if err != nil {
			return ans, fmt.Errorf("decode job snapshot: %w", err)
		}
		if snap.State == service.JobDone || snap.State == service.JobFailed || snap.State == service.JobCanceled {
			break
		}
		ans.waitSpan = rec.begin("http.poll_job", root, req)
		status, data, err = s.call(ctx, http.MethodGet, "/jobs/"+snap.ID+"?wait="+servePollWait.String(), "", nil)
		rec.end(ans.waitSpan)
		if err != nil {
			return ans, err
		}
		if status != http.StatusOK {
			return ans, fmt.Errorf("GET /jobs/%s: status %d", snap.ID, status)
		}
	}
	if snap.State != service.JobDone {
		return ans, fmt.Errorf("job %s ended %s: %s", snap.ID, snap.State, snap.Error)
	}
	ans.snap, ans.hit = snap, hit && snap.Cached
	return ans, nil
}

func runServe(cfg runConfig) (*report, error) {
	arrivals, writes := planServe(cfg.seed, cfg.seconds)
	gs := make([]*graph.Graph, 0, serveGraphs+writes)
	for _, s := range seeds(cfg.seed, 5, serveGraphs+writes) {
		gs = append(gs, gen.ForestUnion(serveVertices, serveForests, s))
	}
	ins, err := encodeInputs(gs)
	if err != nil {
		return nil, err
	}
	pool, fresh := ins[:serveGraphs], ins[serveGraphs:]
	poolSeeds := servePoolSeeds(cfg.seed)

	// The gauge times chunks whenever no op or set-up is in progress.
	gauge := newGauge()
	stopGauge := gauge.startIdle()
	defer stopGauge()

	// Set-up: decode every input, start the service and its listener,
	// upload the pool, then warm up with computed jobs and a hit. The
	// last set-up before the timed part leaves its server running for it.
	// A gauge chunk on either side gives its speed correction.
	var setups []timed
	var decodes, ingests []float64
	ctx := context.Background()
	setUp := func() (*server, []string, error) {
		gauge.begin()
		defer gauge.end()
		runtime.GC()
		gauge.measure()
		start := time.Now()
		d, err := decodeInputs(ins)
		if err != nil {
			return nil, nil, err
		}
		srv, err := startServer()
		if err != nil {
			return nil, nil, err
		}
		ids := make([]string, 0, len(pool))
		for _, in := range pool {
			t0 := time.Now()
			id, err := srv.upload(ctx, in)
			if err != nil {
				srv.stop()
				return nil, nil, err
			}
			ingests = append(ingests, ms(time.Since(t0)))
			ids = append(ids, id)
		}
		// Fill the result cache with every pool graph and pool seed,
		// then ask the first again, a hit: every timed read is a hit,
		// and the timed part computes only its misses and writes.
		for i := range len(ids)*serveSeeds + 1 {
			g, sd := i%len(ids), poolSeeds[i/len(ids)%serveSeeds]
			ans, err := srv.job(ctx, nil, -1, 0, serveSpec(ids[g], sd))
			if err == nil {
				err = checkDecomposition(pool[g].g, ans.snap.Result)
			}
			if err != nil {
				srv.stop()
				return nil, nil, fmt.Errorf("warm-up job: %w", err)
			}
		}
		setups = append(setups, timed{start, time.Since(start)})
		decodes = append(decodes, ms(d))
		gauge.measure()
		return srv, ids, nil
	}
	// spareSetUp times a set-up whose server the timed part does not use.
	spareSetUp := func() error {
		srv, _, err := setUp()
		if err == nil {
			err = srv.stop()
		}
		return err
	}
	for range setupsBefore - 1 {
		if err := spareSetUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	srv, ids, err := setUp()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer srv.stop()
	runtime.GC()

	run := &serveRun{
		srv: srv, rec: cfg.rec, gauge: gauge, arrivals: arrivals, pool: pool, fresh: fresh, ids: ids,
		samples: make([]sample, len(arrivals)), ops: make([]serveOp, len(arrivals)),
		rep: &report{e2e: make(map[string]float64)},
	}
	if cfg.rec != nil {
		run.rep.layers = newLayers()
	}
	before := srv.svc.Stats()
	rss := startRSS()
	// The schedule runs in setupsDuring+1 equal segments. Between two,
	// once the ops in flight have finished, a spare set-up is timed, and
	// the schedule resumes shifted by the pause.
	seg := cfg.seconds / (setupsDuring + 1)
	run.start = time.Now()
	next := 0
	for k := 1; k <= setupsDuring+1; k++ {
		end := len(arrivals)
		if k <= setupsDuring {
			end = sort.Search(len(arrivals), func(i int) bool { return arrivals[i].due >= time.Duration(k)*seg })
		}
		var cancel context.CancelFunc
		run.ctx, cancel = context.WithDeadline(ctx, run.start.Add(time.Duration(k)*seg+serveDrain))
		run.fireAll(next, end)
		cancel()
		next = end
		if k <= setupsDuring {
			if err := spareSetUp(); err != nil {
				rss.finish()
				return nil, fmt.Errorf("set-up: %w", err)
			}
			run.start = time.Now().Add(-time.Duration(k) * seg)
		}
	}
	rssMB := rss.finish()
	stopGauge()
	after := srv.svc.Stats()
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stop service: %w", err)
	}

	rep := run.rep
	t := newTally(serveLimit)
	t.gauge = gauge
	var runSecs float64
	var computedEdges int64
	var queueWait, runMs, verifyMs, traced, untraced, hitPost []float64
	var phases phaseTimes
	distinct := make(map[string]bool)
	var ans []answer
	for i, s := range run.samples {
		t.add(s)
		op := run.ops[i]
		if op.ingest > 0 {
			ingests = append(ingests, ms(op.ingest))
		}
		if s.outcome != opOK {
			continue
		}
		if cfg.rec != nil {
			lat := ms(s.done.Sub(s.due))
			if op.traced {
				traced = append(traced, lat)
				verifyMs = append(verifyMs, ms(op.verify))
				if s.hit {
					hitPost = append(hitPost, ms(op.postHit))
				}
				if op.phases != nil {
					phases.add(op.phases)
				}
			} else {
				untraced = append(untraced, lat)
			}
		}
		snap := op.snap
		if key := snap.Spec.CacheKey(); !distinct[key] {
			distinct[key] = true
			ans = append(ans, answer{g: op.g, alpha: serveOpts.Alpha, dec: snap.Result.Decomposition})
		}
		if !snap.Cached && snap.StartedAt != nil && snap.FinishedAt != nil {
			d := snap.FinishedAt.Sub(*snap.StartedAt)
			runSecs += gauge.corrected(snap.StartedAt.Add(d/2), d) / 1000
			computedEdges += int64(op.g.M())
			queueWait = append(queueWait, ms(snap.StartedAt.Sub(snap.CreatedAt)))
			runMs = append(runMs, ms(d))
		}
	}
	if err := rep.fill(t, setups, rssMB, ans); err != nil {
		return nil, err
	}
	if runSecs > 0 {
		rep.e2e["edges_per_s"] = float64(computedEdges) / runSecs
	}

	if l := rep.layers; l != nil {
		l["graph.decode_ms"] = median(decodes)
		l["service.ingest_ms"] = median(ingests)
		l["service.queue_wait_p50_ms"] = median(queueWait)
		qw95, ok := percentile(queueWait, 0.95)
		if !ok {
			rep.notef("service.queue_wait_p95_ms rests on %d computed jobs, fewer than %d", len(queueWait), minSamples)
		}
		l["service.queue_wait_p95_ms"] = qw95
		l["service.run_p50_ms"] = median(runMs)
		hits := after.Results.Hits - before.Results.Hits - int64(len(run.inproc))
		misses := after.Results.Misses - before.Results.Misses
		if hits+misses > 0 {
			l["service.cache_hit_frac"] = float64(hits) / float64(hits+misses)
		}
		l["service.dedups"] = float64(after.Dedups - before.Dedups)
		l["service.encode_ms"] = median(run.encode)
		l["service.result_kb"] = mean(run.kb)
		if len(hitPost) > 0 && len(run.inproc) > 0 {
			l["service.http_overhead_ms"] = median(hitPost) - median(run.inproc)
		}
		phases.fill(l)
		l["verify.ms"] = mean(verifyMs)
		l["trace.overhead_frac"] = overheadFrac(traced, untraced)
		replayPaths(ans, l)
	}
	return rep, nil
}

// serveRun is the timed part of serve-mix: the schedule, the service it
// drives, and what each arrival's op left behind. Each arrival's sample
// and op are written only by the sender that fired it.
type serveRun struct {
	srv         *server
	rec         *recorder
	gauge       *gauge
	arrivals    []arrival
	pool, fresh []input
	ids         []string        // pool graph IDs
	start       time.Time       // the schedule's origin, moved on by each pause
	ctx         context.Context // bounds a segment's ops by the drain limit
	samples     []sample
	ops         []serveOp
	rep         *report
	mu          sync.Mutex // guards rep's notes and the probe samples below
	inproc      []float64  // in-process Submit of a hit's spec, ms
	encode, kb  []float64  // json.Marshal of its snapshot: ms, KiB
}

// fireAll fires arrivals [from, to) from serveConns senders and waits
// until every one has finished.
func (r *serveRun) fireAll(from, to int) {
	queue := make(chan int, to-from)
	for i := from; i < to; i++ {
		queue <- i
	}
	close(queue)
	var wg sync.WaitGroup
	for range serveConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r.fire(i)
			}
		}()
	}
	wg.Wait()
}

// serveSpec is the job spec for one graph and option seed.
func serveSpec(id string, seed uint64) service.JobSpec {
	opts := serveOpts
	opts.Seed = seed
	return service.JobSpec{GraphID: id, Algorithm: "decompose", Options: opts}
}

// fire waits for arrival i's due time, runs its op, verifies the answer
// and records the sample. Even arrivals are traced in a traced run.
func (r *serveRun) fire(i int) {
	a := r.arrivals[i]
	due := r.start.Add(a.due)
	time.Sleep(time.Until(due))
	r.gauge.begin()
	defer r.gauge.end()
	s := sample{due: due, fired: time.Now()}
	defer func() { r.samples[i] = s }()
	if s.fired.Sub(due) > serveShedAfter {
		s.outcome, s.done = opShed, s.fired
		return
	}
	rec := r.rec
	if i%2 == 1 {
		rec = nil
	}
	req := int64(i)
	root := rec.begin("op", -1, req)
	op := &r.ops[i]
	op.traced = rec != nil
	var id string
	var err error
	if a.kind == kindWrite {
		sp := rec.begin("http.post_graph", root, req)
		t0 := time.Now()
		id, err = r.srv.upload(r.ctx, r.fresh[a.graph])
		op.ingest = time.Since(t0)
		rec.end(sp)
		op.g = r.fresh[a.graph].g
	} else {
		id, op.g = r.ids[a.graph], r.pool[a.graph].g
	}
	var snap *service.JobSnapshot
	if err == nil {
		var ans jobAnswer
		ans, err = r.srv.job(r.ctx, rec, root, req, serveSpec(id, a.seed))
		snap, s.hit = ans.snap, ans.hit
		switch {
		case err != nil:
		case s.hit:
			op.postHit = ans.post
		case rec != nil:
			r.traceRun(rec, ans.waitSpan, req, op, snap)
		}
	}
	switch {
	case err == nil:
		sp := rec.begin("verify", root, req)
		t0 := time.Now()
		err = checkServed(snap, id, a.seed, op.g)
		op.verify = time.Since(t0)
		rec.end(sp)
		if err != nil {
			s.outcome = opInvalid
		}
	case errors.Is(err, errRefused):
		s.outcome = opRefused
	case r.ctx.Err() != nil:
		s.outcome = opTimedOut
	default:
		s.outcome = opFailed
	}
	s.done = time.Now()
	rec.end(root)
	if err != nil {
		r.mu.Lock()
		r.rep.notef("arrival %d (%s): %v", i, kindNames[a.kind], err)
		r.mu.Unlock()
		return
	}
	op.snap = snap
	if rec != nil && s.hit {
		r.probeHit(req, serveSpec(id, a.seed))
	}
}

// traceRun records a computed job's run inside the service, from the
// trace the service keeps of every job: a span from StartedAt to
// FinishedAt under the span the answer arrived in, with the job's
// phases under it. The service files a trace just after the job
// finishes; a job whose trace is not filed yet is left out.
func (r *serveRun) traceRun(rec *recorder, parent int32, req int64, op *serveOp, snap *service.JobSnapshot) {
	tr, ok := r.srv.svc.Trace(snap.ID)
	if !ok || snap.StartedAt == nil || snap.FinishedAt == nil {
		return
	}
	run := rec.addSpan("service.run", parent, req, *snap.StartedAt, *snap.FinishedAt)
	op.phases = tr.Phases()
	rec.addPhases(run, req, op.phases)
}

// probeHit submits a hit's spec again in process, after the op's
// latency was taken: what the hit costs without the loopback round
// trip, and the encode of the body the handler writes.
func (r *serveRun) probeHit(req int64, spec service.JobSpec) {
	sp := r.rec.begin("service.Submit", -1, req)
	t0 := time.Now()
	j, err := r.srv.svc.Submit(spec)
	d := time.Since(t0)
	r.rec.end(sp)
	if err != nil || !j.Snapshot().Cached {
		return
	}
	sp = r.rec.begin("json.encode", -1, req)
	e, size, err := encodeSnapshot(j.Snapshot())
	r.rec.end(sp)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inproc = append(r.inproc, ms(d))
	if err == nil {
		r.encode = append(r.encode, ms(e))
		r.kb = append(r.kb, float64(size)/1024)
	}
}

// checkServed verifies a served snapshot against the graph the op
// uploaded or chose: the spec must be the one submitted and the
// decoded colors a forest decomposition of that graph.
func checkServed(snap *service.JobSnapshot, id string, seed uint64, g *graph.Graph) error {
	if snap.Spec.GraphID != id || snap.Spec.Options.Seed != seed {
		return fmt.Errorf("answered spec (%s, seed %d), asked (%s, seed %d)",
			shortID(snap.Spec.GraphID), snap.Spec.Options.Seed, shortID(id), seed)
	}
	return checkDecomposition(g, snap.Result)
}
