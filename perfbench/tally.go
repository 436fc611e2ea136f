package main

import (
	"fmt"
	"strings"
	"time"
)

// outcome classifies one attempted op. Everything but opOK counts
// against ok_frac and as a miss of the latency limit.
type outcome int

const (
	opOK       outcome = iota
	opRefused          // the service answered 503 (queue full or closing)
	opShed             // the generator dropped the arrival: it was too late to fire
	opFailed           // transport error, unexpected status, failed or canceled job
	opTimedOut         // still unfinished when the run's drain limit passed
	opInvalid          // finished, but the output failed verification
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "refused", "shed", "failed", "timed_out", "invalid"}

// sample is one op as the generator saw it. A closed-loop op is due the
// moment it is fired; an open-loop op is due at its scheduled arrival.
type sample struct {
	due, fired, done time.Time
	outcome          outcome
	hit              bool // answered from a result the program already held
}

// tally folds samples into the end-to-end accounting. Latency runs from
// the due time, so a stall that delays later arrivals is charged to
// them; only verified successes contribute latency samples. Latencies
// are corrected for the host's speed by gauge (nil: not corrected).
type tally struct {
	limit     time.Duration // latency limit behind slo_frac, on corrected latency
	gauge     *gauge
	attempted int
	counts    [numOutcomes]int
	lat       []float64 // ms, verified ops, corrected
	raw       []float64 // ms, verified ops, as measured
	hitLat    []float64 // ms, verified hits, corrected
	late      []float64 // ms, fired minus due
	withinSLO int
}

func newTally(limit time.Duration) *tally { return &tally{limit: limit} }

func (t *tally) add(s sample) {
	t.attempted++
	t.counts[s.outcome]++
	if s.outcome == opShed {
		return
	}
	t.late = append(t.late, ms(s.fired.Sub(s.due)))
	if s.outcome != opOK {
		return
	}
	d := s.done.Sub(s.due)
	lat := t.gauge.corrected(s.due.Add(d/2), d)
	t.lat = append(t.lat, lat)
	t.raw = append(t.raw, ms(d))
	if s.hit {
		t.hitLat = append(t.hitLat, lat)
	}
	if lat <= ms(t.limit) {
		t.withinSLO++
	}
}

// failed counts every attempt that did not end in a verified success.
func (t *tally) failed() int { return t.attempted - t.counts[opOK] }

func (t *tally) okFrac() float64 { return frac(t.counts[opOK], t.attempted) }

// sloFrac is the share of attempts that succeeded within the limit; a
// failure is a miss however fast it was.
func (t *tally) sloFrac() float64 { return frac(t.withinSLO, t.attempted) }

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// outcomes renders the outcome counts, e.g. "ok=151 shed=146".
func (t *tally) outcomes() string {
	var parts []string
	for o, n := range t.counts {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", outcomeNames[o], n))
		}
	}
	return strings.Join(parts, " ")
}
