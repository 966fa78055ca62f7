package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"
)

// The host this benchmark runs on is shared: its speed drifts by tens of
// percent from minute to minute, and more between repetitions. The
// process keeps running through a slow spell (CPU time tracks wall time),
// so the slowdown comes from contention for caches, memory or cores, not
// from descheduling. Every time metric is therefore reported in
// reference-host seconds: a measured time scaled by refNominalSec ÷ the
// time of a frozen reference kernel measured right around it. The kernel
// is a miniature of the simulator's hot loop — an event heap of closures,
// map-keyed per-request state, exponential noise draws — so a slow spell
// slows both alike, while a change to the simulator leaves the kernel,
// which lives only here, untouched.

// refNominalSec is the reference kernel's time on the reference host
// (2-vCPU Intel Xeon VM, Go 1.24, a quiet spell).
const refNominalSec = 0.0052

// refBracket is how many kernel runs are taken before and after each
// repetition. paper-sweep also takes one between experiments, so its
// reference covers the pass it scales rather than only its ends.
const refBracket = 4

// refClock accumulates reference-kernel times, and the heap allocations
// the kernel made, which a repetition that samples it mid-pass subtracts.
type refClock struct {
	sum    float64
	n      int
	allocs uint64
}

func heapAllocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func (c *refClock) sample(k int) {
	a0 := heapAllocs()
	for ; k > 0; k-- {
		c.sum += refSeconds()
		c.n++
	}
	c.allocs += heapAllocs() - a0
}

func (c *refClock) add(o refClock) {
	c.sum += o.sum
	c.n += o.n
	c.allocs += o.allocs
}

func (c refClock) mean() float64 { return c.sum / float64(c.n) }

type refEvent struct {
	at  float64
	seq int64
	fn  func()
}

// refHeap is a 4-ary min-heap ordered by (at, seq), as the simulator's
// event engine is.
type refHeap []refEvent

func (e refEvent) before(o refEvent) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

func (h *refHeap) push(e refEvent) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 4
		if !s[i].before(s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *refHeap) pop() refEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		m := i
		for c := 4*i + 1; c <= 4*i+4 && c < n; c++ {
			if s[c].before(s[m]) {
				m = c
			}
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

var refSink float64

// refSeconds runs the reference kernel once and returns its wall time.
func refSeconds() float64 {
	start := time.Now()
	rng := rand.New(rand.NewSource(1))
	var h refHeap
	held := make(map[int]int, 1024)
	var seq int64
	const depth, steps = 2048, 20_000
	for i := 0; i < depth; i++ {
		seq++
		id := i
		h.push(refEvent{at: rng.Float64() * depth, seq: seq, fn: func() { held[id%1024]++ }})
	}
	for s := 0; s < steps; s++ {
		e := h.pop()
		e.fn()
		refSink += math.Exp(rng.NormFloat64()*0.05) * (1 + rng.Float64())
		seq++
		id := s
		h.push(refEvent{at: e.at + rng.ExpFloat64()*depth, seq: seq, fn: func() {
			held[id%1024] += 2
			if held[id%1024] > 8 {
				delete(held, id%1024)
			}
		}})
	}
	return time.Since(start).Seconds()
}
