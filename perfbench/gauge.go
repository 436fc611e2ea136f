package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The shared host the bounds were set on switches between a fast and a
// slow mode on a scale of seconds to minutes. In the slow mode code that
// walks memory runs up to 1.6x slower, while a loop that stays in
// registers slows by under 10%. A run that falls in the slow mode would
// read that much slower with no change to the program.
//
// So every time in the end-to-end result is corrected for the host's
// speed. A run times a fixed reference task, the gauge, in short chunks
// interleaved with its ops. Each time is scaled by gaugeBaseMs over the
// median of the gaugeNearest chunks nearest to it. The reference task is
// the benchmark's own code, so a program change moves the corrected
// times exactly as it moves the raw ones; only the host's speed is taken
// out.
//
// The task does the kind of memory access the program does: a
// breadth-first search over a fixed pseudo-random graph in flat int32
// arrays, then inserts into a hash map. On the reference machine,
// corrected decompose p50s stayed within ±5% across runs whose raw p50s
// moved by up to 60% with the host.
const (
	gaugeVertices = 4096 // reference graph: vertices
	gaugeDegree   = 4    // out-edges per vertex
	gaugeMapKeys  = 2048 // map inserts per rep
	gaugeReps     = 16   // one BFS and the map inserts, per chunk
	gaugeNearest  = 3    // chunks whose median corrects one time
	// gaugeBaseMs is a chunk's median time on the reference machine
	// (a 2-vCPU Xeon VM) in its fast mode: corrected times read as if
	// every op ran at that speed.
	gaugeBaseMs = 2.0
	// gaugeEvery is how often an idle open loop times a chunk when no
	// op has ended since the last one.
	gaugeEvery = 100 * time.Millisecond
)

// refTask is the gauge's reference work. Its inputs are fixed, so every
// chunk does the same work in every run.
type refTask struct {
	off, adj []int32
	dist     []int32
	queue    []int32
	m        map[uint32]uint32
	sink     uint64
}

func newRefTask() *refTask {
	t := &refTask{
		off:   make([]int32, gaugeVertices+1),
		adj:   make([]int32, 0, gaugeVertices*gaugeDegree),
		dist:  make([]int32, gaugeVertices),
		queue: make([]int32, 0, gaugeVertices),
		m:     make(map[uint32]uint32, gaugeMapKeys),
	}
	x := uint64(0x9E3779B97F4A7C15)
	for v := range gaugeVertices {
		for range gaugeDegree {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			t.adj = append(t.adj, int32(x%gaugeVertices))
		}
		t.off[v+1] = int32(len(t.adj))
	}
	return t
}

// rep runs one search from source src and one round of map inserts.
func (t *refTask) rep(src int) {
	for i := range t.dist {
		t.dist[i] = -1
	}
	q := append(t.queue[:0], int32(src))
	t.dist[src] = 0
	for h := 0; h < len(q); h++ {
		u := q[h]
		for _, w := range t.adj[t.off[u]:t.off[u+1]] {
			if t.dist[w] < 0 {
				t.dist[w] = t.dist[u] + 1
				q = append(q, w)
			}
		}
	}
	t.queue = q
	clear(t.m)
	for i := range uint32(gaugeMapKeys) {
		t.m[i*2654435761] += uint32(len(q))
	}
	t.sink += uint64(len(q) + len(t.m))
}

// gauge times chunks of the reference task and corrects times with them.
type gauge struct {
	task  *refTask
	run   sync.Mutex // one chunk at a time
	mu    sync.Mutex // guards at and ms
	at    []time.Time
	ms    []float64
	epoch atomic.Int64  // bumped when an op or set-up starts
	busy  atomic.Int64  // ops and set-ups in progress
	ended chan struct{} // signalled when the last op in progress ends
}

func newGauge() *gauge { return &gauge{task: newRefTask(), ended: make(chan struct{}, 1)} }

// measure times one chunk and records it.
func (g *gauge) measure() { g.chunk(false) }

// chunk times gaugeReps reps. With idle set it yields between reps and
// drops the chunk as soon as an op or set-up starts, so that the chunk
// delays an op by at most one rep and never times the op's work.
func (g *gauge) chunk(idle bool) {
	g.run.Lock()
	defer g.run.Unlock()
	epoch := g.epoch.Load()
	if idle && g.busy.Load() > 0 {
		return
	}
	start := time.Now()
	for i := range gaugeReps {
		if idle {
			runtime.Gosched()
			if g.epoch.Load() != epoch {
				return
			}
		}
		g.task.rep(i * 257 % gaugeVertices)
	}
	end := time.Now()
	if idle && (g.epoch.Load() != epoch || g.busy.Load() > 0) {
		return
	}
	g.mu.Lock()
	g.at = append(g.at, end)
	g.ms = append(g.ms, ms(end.Sub(start)))
	g.mu.Unlock()
}

// begin marks an op or set-up as started; end marks it finished.
func (g *gauge) begin() {
	g.busy.Add(1)
	g.epoch.Add(1)
}

func (g *gauge) end() {
	if g.busy.Add(-1) == 0 {
		select {
		case g.ended <- struct{}{}:
		default:
		}
	}
}

// idle times a chunk right after the last op in progress ends, so that
// every op has a chunk next to it, and every gaugeEvery while nothing
// is in progress, until stop is closed. It returns once its last chunk
// has ended.
func (g *gauge) idle(stop <-chan struct{}) {
	tick := time.NewTicker(gaugeEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-g.ended:
		case <-tick.C:
		}
		g.chunk(true)
	}
}

// startIdle runs idle in the background; the returned function stops it
// and waits until it has returned. Calls after the first do nothing.
func (g *gauge) startIdle() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		g.idle(quit)
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(quit)
			<-done
		})
	}
}

// factor is the correction for a time centred on t: gaugeBaseMs over the
// median of the gaugeNearest chunks that ended nearest to t. A nil gauge
// or one with no chunks corrects nothing.
func (g *gauge) factor(t time.Time) float64 {
	if g == nil {
		return 1
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	n := len(g.at)
	if n == 0 {
		return 1
	}
	// Chunks are recorded in time order; widen a window around t's
	// position, taking the nearer neighbor each step.
	i := sort.Search(n, func(i int) bool { return !g.at[i].Before(t) })
	lo, hi := i, i // window [lo, hi)
	for hi-lo < min(gaugeNearest, n) {
		switch {
		case lo == 0:
			hi++
		case hi == n:
			lo--
		case t.Sub(g.at[lo-1]) <= g.at[hi].Sub(t):
			lo--
		default:
			hi++
		}
	}
	return gaugeBaseMs / median(g.ms[lo:hi])
}

// slowdown is the run's median chunk time over gaugeBaseMs: how much
// slower the host ran than the reference machine's fast mode.
func (g *gauge) slowdown() float64 {
	if g == nil {
		return 1
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return median(g.ms) / gaugeBaseMs
}

// corrected scales a duration centred on t by the gauge's factor there.
func (g *gauge) corrected(t time.Time, d time.Duration) float64 {
	return ms(d) * g.factor(t)
}

// timed is one interval: when it started and how long it took.
type timed struct {
	start time.Time
	d     time.Duration
}

func (x timed) mid() time.Time { return x.start.Add(x.d / 2) }
