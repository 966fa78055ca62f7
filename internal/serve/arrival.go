package serve

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"cllm/internal/sim"
)

// This file is the one arrival path every serving run takes: an
// arrivalSource yields the offered load one request at a time, and drive
// feeds it into the engine keeping a single arrival pending.
//
// Determinism contract, pinned by digest_test.go:
//
//   - Arrivals ride the engine's arrival lane (sim.Engine.ScheduleArrival),
//     so at equal instants they run before every other event and in
//     arrival order — the order a run gets by scheduling all arrivals up
//     front. Pulling them lazily replays that run bit for bit, in either
//     quantile mode, for Poisson, scenario and trace loads alike.
//   - Synthetic loads draw from their own streams on Config.Seed. A
//     single-replica run also skips the same draws in its noise stream
//     (skipArrivals), so step noise starts where it did when the run drew
//     its arrivals from the noise stream itself.
//   - A trace is replayed in stable arrival order: sorted by ArrivalSec,
//     ties in trace order.

// arrivalSource yields the offered load one request at a time, in
// nondecreasing arrival order: emit(i) builds the i-th of n arrivals.
type arrivalSource struct {
	n, i int
	emit func(i int) Request
	// order, for a trace listed out of arrival order, maps arrival
	// position to trace position; nil otherwise.
	order []int
}

func (a *arrivalSource) next() (Request, bool) {
	if a.i >= a.n {
		return Request{}, false
	}
	a.i++
	return a.emit(a.i - 1), true
}

// newArrivalSource streams cfg's offered load: the explicit trace in
// stable arrival order, a workload scenario, or Poisson arrivals with
// jittered lengths (see poissonGen). Synthetic loads draw from streams
// seeded with seed; a trace needs none. cfg must be normalized.
func newArrivalSource(cfg Config, seed int64) (*arrivalSource, error) {
	ctx := cfg.Workload.Model.ContextLen
	switch {
	case len(cfg.Trace) > 0:
		if err := validateTrace(cfg); err != nil {
			return nil, err
		}
		trace, order := cfg.Trace, arrivalOrder(cfg.Trace)
		return &arrivalSource{n: len(trace), order: order, emit: func(i int) Request {
			if order != nil {
				return trace[order[i]]
			}
			return trace[i]
		}}, nil
	case cfg.Scenario != nil:
		gen, err := cfg.Scenario.Stream(cfg.Requests, seed)
		if err != nil {
			return nil, err
		}
		return &arrivalSource{n: cfg.Requests, emit: func(i int) Request {
			wr := gen.Next()
			return clampToContext(Request{
				ID: i, ArrivalSec: wr.ArrivalSec,
				InputLen: wr.InputLen, OutputLen: wr.OutputLen,
				PrefixID: wr.PrefixID, PrefixLen: wr.PrefixLen,
				Class: classOfShape(wr.Shape),
			}, ctx)
		}}, nil
	default:
		g := newPoissonGen(cfg, rand.New(rand.NewSource(seed)))
		return &arrivalSource{n: cfg.Requests, emit: g.draw}, nil
	}
}

// arrivalOrder returns the trace's indices in stable arrival order, or nil
// when the trace is already sorted.
func arrivalOrder(trace []Request) []int {
	if slices.IsSortedFunc(trace, func(a, b Request) int { return cmp.Compare(a.ArrivalSec, b.ArrivalSec) }) {
		return nil
	}
	order := make([]int, len(trace))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(trace[a].ArrivalSec, trace[b].ArrivalSec) })
	return order
}

// skipArrivals advances rng past the draws synthesizing cfg's offered load
// from it would make, without building the requests.
func skipArrivals(cfg Config, rng *rand.Rand) {
	switch {
	case len(cfg.Trace) > 0:
	case cfg.Scenario != nil:
		cfg.Scenario.Skip(cfg.Requests, rng)
	default:
		g := newPoissonGen(cfg, rng)
		for i := 0; i < cfg.Requests; i++ {
			g.draw(i)
		}
	}
}

// drive feeds src's arrivals into eng and runs the engine to the horizon,
// HorizonSec past the last arrival. Only one arrival is ever pending: each
// arrival schedules its successor on the arrival lane before submitting
// itself, and the engine runs to each pending arrival's instant in turn,
// because the horizon is known only once the last arrival is drawn.
func drive(eng *sim.Engine, src *arrivalSource, cfg Config, submit func(Request)) error {
	pending, more := src.next()
	var arrive func(*sim.Engine)
	arrive = func(*sim.Engine) {
		cur := pending
		if pending, more = src.next(); more {
			eng.ScheduleArrival(sim.Time(pending.ArrivalSec), arrive)
		}
		submit(cur)
	}
	last := 0.0
	if more {
		eng.ScheduleArrival(sim.Time(pending.ArrivalSec), arrive)
	}
	for more {
		last = pending.ArrivalSec
		if _, err := eng.RunUntil(sim.Time(last), cfg.MaxSteps); err != nil {
			return err
		}
	}
	_, err := eng.RunUntil(sim.Time(last+cfg.HorizonSec), cfg.MaxSteps)
	return err
}

// Drive feeds cfg's offered load — trace, scenario, or Poisson, exactly as
// RunFleet sees it — into eng one arrival at a time, calling submit at each
// arrival's instant, and runs the engine to HorizonSec past the last
// arrival. cfg must already be normalized (see Config.Normalize). External
// control loops (internal/autoscale) use it to dispatch the offered load
// across a fleet they manage themselves.
func Drive(eng *sim.Engine, cfg Config, submit func(Request)) error {
	src, err := newArrivalSource(cfg, cfg.Seed)
	if err != nil {
		return err
	}
	return drive(eng, src, cfg, submit)
}

// Arrivals materializes the offered load a configuration describes, in the
// order a run replays it.
func Arrivals(cfg Config) ([]Request, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	src, err := newArrivalSource(cfg, cfg.Seed)
	if err != nil {
		return nil, err
	}
	out := make([]Request, 0, src.n)
	for r, ok := src.next(); ok; r, ok = src.next() {
		out = append(out, r)
	}
	return out, nil
}

// validateTrace rejects malformed explicit traces.
func validateTrace(cfg Config) error {
	seen := make(map[int]bool, len(cfg.Trace))
	for _, r := range cfg.Trace {
		if r.InputLen <= 0 || r.OutputLen <= 0 || r.ArrivalSec < 0 {
			return fmt.Errorf("serve: invalid trace request %+v", r)
		}
		if r.PrefixLen < 0 || r.PrefixLen > r.InputLen {
			return fmt.Errorf("serve: request %d prefix %d outside prompt %d", r.ID, r.PrefixLen, r.InputLen)
		}
		if sum := r.InputLen + r.OutputLen; sum > cfg.Workload.Model.ContextLen {
			return fmt.Errorf("serve: request %d length %d exceeds %s context %d",
				r.ID, sum, cfg.Workload.Model.Name, cfg.Workload.Model.ContextLen)
		}
		if seen[r.ID] {
			return fmt.Errorf("serve: duplicate request ID %d in trace", r.ID)
		}
		seen[r.ID] = true
	}
	return nil
}

// poissonGen synthesizes Poisson arrivals with jittered lengths, one
// request at a time. Per request it draws the inter-arrival gap, then the
// prefix group and suffix jitter (or the input jitter), then the output
// jitter. With PrefixGroups set, each request joins a random prefix group
// and shares its leading PrefixFrac×InputLen tokens with the group
// (RAG-style workloads: common system prompt and document set, distinct
// questions).
type poissonGen struct {
	cfg       Config
	rng       *rand.Rand
	prefixLen int
	t         float64
}

func newPoissonGen(cfg Config, rng *rand.Rand) *poissonGen {
	prefixLen := 0
	if cfg.PrefixGroups > 0 {
		prefixLen = int(math.Round(cfg.PrefixFrac * float64(cfg.Workload.InputLen)))
		if prefixLen >= cfg.Workload.InputLen {
			prefixLen = cfg.Workload.InputLen - 1
		}
	}
	return &poissonGen{cfg: cfg, rng: rng, prefixLen: prefixLen}
}

func (g *poissonGen) jitter(mean int) int {
	if g.cfg.LengthJitter <= 0 || mean <= 0 {
		return mean
	}
	f := 1 + g.cfg.LengthJitter*(2*g.rng.Float64()-1)
	n := int(math.Round(float64(mean) * f))
	if n < 1 {
		n = 1
	}
	return n
}

// draw returns the next arrival, labeled id.
func (g *poissonGen) draw(id int) Request {
	g.t += g.rng.ExpFloat64() / g.cfg.Rate
	var inLen int
	r := Request{ID: id, ArrivalSec: g.t}
	if g.prefixLen > 0 {
		// The shared prefix has one fixed length per group; only the
		// request-specific suffix jitters. Group membership is drawn at
		// random — deterministic round-robin assignment would alias with
		// round-robin dispatch in fleet runs and fake prefix affinity.
		r.PrefixID = g.rng.Intn(g.cfg.PrefixGroups) + 1
		r.PrefixLen = g.prefixLen
		suffix := g.jitter(g.cfg.Workload.InputLen - g.prefixLen)
		if suffix < 1 {
			suffix = 1
		}
		inLen = g.prefixLen + suffix
	} else {
		inLen = g.jitter(g.cfg.Workload.InputLen)
	}
	outLen := g.jitter(g.cfg.Workload.OutputLen)
	if outLen < 2 {
		outLen = 2 // keep TPOT defined
	}
	// Upward jitter on means near the context limit must not overflow it.
	r.InputLen, r.OutputLen = inLen, outLen
	return clampToContext(r, g.cfg.Workload.Model.ContextLen)
}

// clampToContext enforces the model context window on a synthesized
// request: shorten the prompt first, then the generation, and never let a
// shared prefix cover (or outlive) the whole prompt.
func clampToContext(r Request, ctx int) Request {
	if over := r.InputLen + r.OutputLen - ctx; over > 0 {
		r.InputLen -= over
		if r.InputLen < 1 {
			r.InputLen = 1
		}
		if r.InputLen+r.OutputLen > ctx {
			r.OutputLen = ctx - r.InputLen
		}
	}
	if r.PrefixLen >= r.InputLen {
		r.PrefixLen = r.InputLen - 1
	}
	if r.PrefixLen <= 0 {
		r.PrefixID, r.PrefixLen = 0, 0
	}
	return r
}
