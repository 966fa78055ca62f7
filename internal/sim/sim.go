// Package sim provides the discrete-event simulation core shared by the
// performance engine and the RAG pipeline: a virtual clock with an event
// queue, deterministic RNG streams, and the noise/outlier models that give
// TEE runs their characteristic variability (the paper's memory-encryption
// jitter and Z>3 outliers).
package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Time is simulated time in seconds.
type Time float64

// Event is a scheduled callback.
type Event struct {
	At  Time
	Fn  func(*Engine)
	seq int64 // tie-breaker for deterministic ordering
}

// before is the engine's total event order: time, then scheduling sequence.
// seq is unique per engine, so the order is strict — pop order is the same
// whatever heap shape holds the events.
func (ev Event) before(other Event) bool {
	if ev.At != other.At {
		return ev.At < other.At
	}
	return ev.seq < other.seq
}

// Engine is a discrete-event simulator. The pending events live in a typed
// 4-ary heap stored by value: scheduling an event is one slice append (no
// per-event box through an interface{} heap), and the shallow 4-ary tree
// trades slightly more comparisons per level for ~half the swap depth —
// both of which matter to the serving scheduler, which pushes and pops one
// event per iteration for millions of iterations in a sweep.
type Engine struct {
	now    Time
	events []Event // 4-ary min-heap ordered by Event.before
	nextID int64
	// arrivalID sequences the arrival lane (ScheduleArrival). It counts up
	// from math.MinInt64, so every arrival's seq sorts below every seq
	// Schedule/ScheduleAt hand out.
	arrivalID int64
	// Steps counts processed events, a cheap progress/liveness metric.
	Steps int64
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{arrivalID: math.MinInt64} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Schedule queues fn to run after delay. Negative delays are clamped to 0.
func (e *Engine) Schedule(delay Time, fn func(*Engine)) {
	if delay < 0 {
		delay = 0
	}
	e.nextID++
	e.push(Event{At: e.now + delay, Fn: fn, seq: e.nextID})
}

// ScheduleAt queues fn at the absolute instant at, clamped to the current
// time when it lies in the past. Unlike Schedule, which computes
// now + (at − now), it places the event at exactly at.
func (e *Engine) ScheduleAt(at Time, fn func(*Engine)) {
	if at < e.now {
		at = e.now
	}
	e.nextID++
	e.push(Event{At: at, Fn: fn, seq: e.nextID})
}

// ScheduleArrival queues fn at the absolute instant at on the arrival
// lane: at equal instants it runs before every Schedule/ScheduleAt event,
// whenever either was scheduled, and arrivals run in call order among
// themselves. That is the order a run gets by scheduling all its arrivals
// up front, before any other event, so a driver that keeps only the next
// arrival pending (each arrival scheduling its successor) replays the
// up-front run exactly. at must not lie in the past.
func (e *Engine) ScheduleArrival(at Time, fn func(*Engine)) {
	e.arrivalID++
	e.push(Event{At: at, Fn: fn, seq: e.arrivalID})
}

// push appends the event and sifts it up the 4-ary heap.
func (e *Engine) push(ev Event) {
	e.events = append(e.events, ev)
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.events[i].before(e.events[parent]) {
			break
		}
		e.events[i], e.events[parent] = e.events[parent], e.events[i]
		i = parent
	}
}

// pop removes and returns the earliest event, sifting the displaced tail
// element down the 4-ary heap.
func (e *Engine) pop() Event {
	top := e.events[0]
	n := len(e.events) - 1
	e.events[0] = e.events[n]
	e.events[n] = Event{} // drop the Fn reference so the closure can be collected
	e.events = e.events[:n]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if e.events[c].before(e.events[min]) {
				min = c
			}
		}
		if !e.events[min].before(e.events[i]) {
			break
		}
		e.events[i], e.events[min] = e.events[min], e.events[i]
		i = min
	}
	return top
}

// Run processes events until the queue is empty or the step limit is hit.
func (e *Engine) Run(maxSteps int64) error {
	_, err := e.RunUntil(Time(math.Inf(1)), maxSteps)
	return err
}

// RunUntil processes events whose time does not exceed horizon, subject to
// the same step limit as Run. Events scheduled beyond the horizon stay
// queued; the clock advances to the horizon if any work was pending past it.
// It returns the number of events left unprocessed. Open-loop serving
// simulations use this to bound runaway backlogs deterministically.
func (e *Engine) RunUntil(horizon Time, maxSteps int64) (remaining int, err error) {
	for len(e.events) > 0 {
		if e.events[0].At > horizon {
			if horizon > e.now { // never rewind the clock
				e.now = horizon
			}
			return len(e.events), nil
		}
		if maxSteps >= 0 && e.Steps >= maxSteps {
			return len(e.events), fmt.Errorf("sim: step limit %d reached at t=%g", maxSteps, float64(e.now))
		}
		ev := e.pop()
		e.now = ev.At
		e.Steps++
		ev.Fn(e)
	}
	return 0, nil
}

// Noise generates the latency jitter observed on real systems. TEE runs get
// extra multiplicative jitter plus rare heavy-tail outliers caused by
// memory-encryption engine contention, as the paper reports (§III-D:
// ≈0.64% of samples beyond Z>3 under SGX/TDX). Base and TEEJitter are fixed
// after NewNoise, which derives the TEE sigma from them once.
type Noise struct {
	rng *rand.Rand
	// Base is the relative stddev of baseline jitter (e.g. 0.01 = 1%).
	Base float64
	// TEEJitter is additional relative stddev under a TEE.
	TEEJitter float64
	// teeSigma is the combined TEE stddev, sqrt(Base² + TEEJitter²).
	teeSigma float64
	// OutlierProb is the probability of a heavy-tail outlier sample.
	OutlierProb float64
	// OutlierScale multiplies the sample when an outlier fires.
	OutlierScale float64
}

// NewNoise returns a Noise source seeded deterministically.
func NewNoise(seed int64, base, teeJitter, outlierProb, outlierScale float64) *Noise {
	return &Noise{
		rng:          rand.New(rand.NewSource(seed)),
		Base:         base,
		TEEJitter:    teeJitter,
		teeSigma:     math.Sqrt(base*base + teeJitter*teeJitter),
		OutlierProb:  outlierProb,
		OutlierScale: outlierScale,
	}
}

// Sample perturbs the value v. When tee is true the TEE jitter and outlier
// tail are applied in addition to baseline jitter.
func (n *Noise) Sample(v float64, tee bool) float64 {
	sigma := n.Base
	if tee {
		sigma = n.teeSigma
	}
	// Lognormal multiplicative jitter keeps samples positive.
	f := math.Exp(n.rng.NormFloat64()*sigma - sigma*sigma/2)
	out := v * f
	if tee && n.rng.Float64() < n.OutlierProb {
		out *= n.OutlierScale * (1 + n.rng.Float64())
	}
	return out
}

// RNG exposes the underlying generator for callers needing raw randomness.
func (n *Noise) RNG() *rand.Rand { return n.rng }
