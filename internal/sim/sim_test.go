package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cllm/internal/stats"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func(*Engine) { order = append(order, 3) })
	e.Schedule(1, func(*Engine) { order = append(order, 1) })
	e.Schedule(2, func(*Engine) { order = append(order, 2) })
	if err := e.Run(-1); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
	if e.Now() != 3 {
		t.Errorf("Now = %g, want 3", float64(e.Now()))
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(1, func(*Engine) { order = append(order, i) })
	}
	if err := e.Run(-1); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineChainedEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func(*Engine)
	tick = func(en *Engine) {
		count++
		if count < 10 {
			en.Schedule(0.5, tick)
		}
	}
	e.Schedule(0, tick)
	if err := e.Run(-1); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
	if math.Abs(float64(e.Now())-4.5) > 1e-12 {
		t.Errorf("Now = %g, want 4.5", float64(e.Now()))
	}
}

func TestEngineStepLimit(t *testing.T) {
	e := NewEngine()
	var tick func(*Engine)
	tick = func(en *Engine) { en.Schedule(1, tick) } // infinite chain
	e.Schedule(0, tick)
	if err := e.Run(100); err == nil {
		t.Error("unbounded run with step limit succeeded")
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(5, func(en *Engine) {
		en.Schedule(-3, func(*Engine) { ran = true })
	})
	if err := e.Run(-1); err != nil {
		t.Fatal(err)
	}
	if !ran || e.Now() != 5 {
		t.Errorf("negative delay handling broken: ran=%v now=%g", ran, float64(e.Now()))
	}
}

func TestNoiseDeterminism(t *testing.T) {
	a := NewNoise(7, 0.01, 0.02, 0.005, 5)
	b := NewNoise(7, 0.01, 0.02, 0.005, 5)
	for i := 0; i < 100; i++ {
		if a.Sample(1, true) != b.Sample(1, true) {
			t.Fatal("noise not deterministic for equal seeds")
		}
	}
}

// TestNoiseTEESigmaMatchesPerCallFormula: NewNoise derives the TEE sigma
// once; every sample must be bit-identical to the per-call formula, kept
// here as the oracle on a generator with the same seed.
func TestNoiseTEESigmaMatchesPerCallFormula(t *testing.T) {
	for _, p := range []struct{ base, tee, prob, scale float64 }{
		{0.01, 0.02, 0.005, 5},  // CPU TEE shape
		{0.005, 0.005, 0, 1},    // GPU shape: no outlier tail
		{0.013, 0.0071, 0.5, 3}, // frequent outliers, irrational sigma
	} {
		n := NewNoise(99, p.base, p.tee, p.prob, p.scale)
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 100000; i++ {
			tee := i%3 != 0
			sigma := p.base
			if tee {
				sigma = math.Sqrt(p.base*p.base + p.tee*p.tee)
			}
			want := 2.5 * math.Exp(rng.NormFloat64()*sigma-sigma*sigma/2)
			if tee && rng.Float64() < p.prob {
				want *= p.scale * (1 + rng.Float64())
			}
			if got := n.Sample(2.5, tee); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v sample %d (tee=%v): got %v, per-call formula %v", p, i, tee, got, want)
			}
		}
	}
}

func TestNoiseUnbiasedAndPositive(t *testing.T) {
	n := NewNoise(3, 0.02, 0, 0, 0)
	var xs []float64
	for i := 0; i < 20000; i++ {
		v := n.Sample(10, false)
		if v <= 0 {
			t.Fatal("noise produced non-positive sample")
		}
		xs = append(xs, v)
	}
	m := stats.Mean(xs)
	if math.Abs(m-10)/10 > 0.01 {
		t.Errorf("noise mean = %g, want ~10", m)
	}
}

func TestNoiseTEEOutlierTail(t *testing.T) {
	n := NewNoise(11, 0.005, 0.01, 0.0064, 4)
	var teeSamples []float64
	for i := 0; i < 50000; i++ {
		teeSamples = append(teeSamples, n.Sample(1, true))
	}
	_, removed := stats.FilterZScore(teeSamples, 3)
	frac := float64(removed) / float64(len(teeSamples))
	// Paper reports ≈0.64% of samples at Z>3; accept a generous band.
	if frac < 0.001 || frac > 0.03 {
		t.Errorf("outlier fraction = %.4f, want ~0.0064", frac)
	}
	// Baseline (non-TEE) samples should have (almost) no such tail.
	n2 := NewNoise(12, 0.005, 0.01, 0.0064, 4)
	var base []float64
	for i := 0; i < 50000; i++ {
		base = append(base, n2.Sample(1, false))
	}
	_, removedBase := stats.FilterZScore(base, 3)
	if removedBase > removed {
		t.Errorf("baseline has more outliers (%d) than TEE (%d)", removedBase, removed)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []int
	for i := 1; i <= 5; i++ {
		i := i
		e.Schedule(Time(i), func(*Engine) { fired = append(fired, i) })
	}
	remaining, err := e.RunUntil(3, -1)
	if err != nil {
		t.Fatal(err)
	}
	if remaining != 2 || len(e.events) != 2 {
		t.Fatalf("remaining = %d (pending %d), want 2", remaining, len(e.events))
	}
	if len(fired) != 3 || fired[2] != 3 {
		t.Fatalf("fired = %v, want [1 2 3]", fired)
	}
	if e.Now() != 3 {
		t.Errorf("Now = %g, want horizon 3", float64(e.Now()))
	}
	// The queued tail survives and runs on a later call.
	remaining, err = e.RunUntil(10, -1)
	if err != nil {
		t.Fatal(err)
	}
	if remaining != 0 || len(fired) != 5 {
		t.Fatalf("after second pass: remaining %d, fired %v", remaining, fired)
	}
	if e.Now() != 5 {
		t.Errorf("Now = %g, want last event time 5", float64(e.Now()))
	}
}

func TestEngineRunUntilStepLimit(t *testing.T) {
	e := NewEngine()
	var reschedule func(*Engine)
	reschedule = func(*Engine) { e.Schedule(1, reschedule) }
	e.Schedule(1, reschedule)
	if _, err := e.RunUntil(1e18, 100); err == nil {
		t.Fatal("runaway event chain not stopped by step limit")
	}
}

func TestEngineRunUntilNeverRewinds(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func(*Engine) {})
	if err := e.Run(-1); err != nil {
		t.Fatal(err)
	}
	e.Schedule(10, func(*Engine) {}) // fires at t=15
	if _, err := e.RunUntil(2, -1); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 5 {
		t.Errorf("clock rewound to %g; must stay at 5", float64(e.Now()))
	}
}

// TestEngineHeapRandomizedOrdering stresses the 4-ary value heap: many
// events with colliding times, scheduled both up front and from inside
// callbacks, must fire in strict (time, scheduling-sequence) order.
func TestEngineHeapRandomizedOrdering(t *testing.T) {
	eng := NewEngine()
	rng := rand.New(rand.NewSource(42))
	type fired struct {
		at  Time
		idx int
	}
	var got []fired
	idx := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		n := 40
		if depth > 0 {
			n = 4
		}
		for i := 0; i < n; i++ {
			// Coarse-grained delays force plenty of equal-time ties.
			delay := Time(rng.Intn(8)) / 4
			id := idx
			idx++
			eng.Schedule(delay, func(e *Engine) {
				got = append(got, fired{at: e.Now(), idx: id})
				if depth < 2 && rng.Intn(3) == 0 {
					schedule(depth + 1)
				}
			})
		}
	}
	schedule(0)
	if err := eng.Run(-1); err != nil {
		t.Fatal(err)
	}
	if len(got) < 40 {
		t.Fatalf("only %d events fired", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].at < got[i-1].at {
			t.Fatalf("time went backwards at %d: %v after %v", i, got[i].at, got[i-1].at)
		}
	}
	// Among events scheduled before the run started (same scheduling pass,
	// ascending seq), equal times must fire in scheduling order.
	seen := map[Time]int{}
	for _, f := range got {
		if f.idx >= 40 {
			continue // scheduled mid-run at a later Now; ordering vs batch 0 differs
		}
		if prev, ok := seen[f.at]; ok && f.idx < prev {
			t.Fatalf("tie at t=%v fired out of scheduling order: %d before %d", f.at, prev, f.idx)
		}
		seen[f.at] = f.idx
	}
}

func TestEngineScheduleAt(t *testing.T) {
	eng := NewEngine()
	var fired []Time
	record := func(e *Engine) { fired = append(fired, e.Now()) }
	// An absolute time survives clock advancement bit-exactly: 0.1+0.2
	// style drift from now+(at-now) arithmetic must not occur.
	const target = Time(0.30000000000000004) // 0.1 + 0.2 in float64
	eng.Schedule(0.05, func(e *Engine) {
		e.ScheduleAt(target, record)
		e.ScheduleAt(0.01, record) // in the past: clamps to now (0.05)
	})
	if err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if fired[0] != 0.05 {
		t.Errorf("past-time event fired at %v, want clamped 0.05", fired[0])
	}
	if fired[1] != target {
		t.Errorf("event fired at %v, want exactly %v", fired[1], target)
	}
}

// TestScheduleArrivalRunsFirstAtTies: an arrival runs before every
// same-instant Schedule/ScheduleAt event, even one scheduled earlier.
func TestScheduleArrivalRunsFirstAtTies(t *testing.T) {
	eng := NewEngine()
	var order []string
	rec := func(s string) func(*Engine) { return func(*Engine) { order = append(order, s) } }
	eng.Schedule(1, rec("schedule"))
	eng.ScheduleAt(1, rec("schedule-at"))
	eng.Schedule(0.5, func(e *Engine) {
		e.Schedule(0.5, rec("mid-run"))
		e.ScheduleArrival(1, rec("arrival"))
	})
	if err := eng.Run(-1); err != nil {
		t.Fatal(err)
	}
	want := []string{"arrival", "schedule", "schedule-at", "mid-run"}
	if !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestScheduleArrivalKeepsCallOrder: same-instant arrivals run in the
// order they were scheduled, including one scheduled by another arrival.
func TestScheduleArrivalKeepsCallOrder(t *testing.T) {
	eng := NewEngine()
	var order []int
	for i := 0; i < 4; i++ {
		eng.ScheduleArrival(2, func(e *Engine) {
			order = append(order, i)
			if i == 0 {
				e.ScheduleArrival(2, func(*Engine) { order = append(order, 4) })
			}
		})
	}
	if err := eng.Run(-1); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestLazyArrivalsMatchEager is the property the serving driver rests on:
// feeding N arrivals all up front with Schedule (before any other event)
// and feeding them lazily on the arrival lane (each arrival scheduling its
// successor before doing its work) pop every event in the same order,
// whatever other events the arrivals and their descendants schedule.
func TestLazyArrivalsMatchEager(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		// Times on a 1/8 s grid are exact in float64, so ties are real.
		times := make([]Time, n)
		for i := range times {
			times[i] = Time(rng.Intn(24)) / 8
		}
		slices.Sort(times)
		upFront := rng.Intn(6) // other events scheduled before the run

		run := func(lazy bool) []string {
			eng := NewEngine()
			var log []string
			// spawn is an event whose children depend only on its label,
			// so both runs schedule identical work if they pop identically.
			var spawn func(label string, depth int) func(*Engine)
			spawn = func(label string, depth int) func(*Engine) {
				return func(e *Engine) {
					log = append(log, fmt.Sprintf("%s@%v", label, e.Now()))
					if depth >= 3 {
						return
					}
					h := fnv.New64a()
					h.Write([]byte(label))
					r := rand.New(rand.NewSource(int64(h.Sum64())))
					for c := r.Intn(3); c > 0; c-- {
						child := fmt.Sprintf("%s.%d", label, c)
						if r.Intn(2) == 0 {
							e.Schedule(Time(r.Intn(6))/8, spawn(child, depth+1))
						} else {
							e.ScheduleAt(e.Now()+Time(r.Intn(6))/8, spawn(child, depth+1))
						}
					}
				}
			}
			if lazy {
				var next int
				var arrive func(*Engine)
				arrive = func(e *Engine) {
					i := next
					if next++; next < n {
						e.ScheduleArrival(times[next], arrive)
					}
					spawn(fmt.Sprintf("a%d", i), 0)(e)
				}
				for k := 0; k < upFront; k++ {
					eng.Schedule(Time(k)/4, spawn(fmt.Sprintf("o%d", k), 0))
				}
				eng.ScheduleArrival(times[0], arrive)
			} else {
				for i, at := range times {
					eng.Schedule(at, spawn(fmt.Sprintf("a%d", i), 0))
				}
				for k := 0; k < upFront; k++ {
					eng.Schedule(Time(k)/4, spawn(fmt.Sprintf("o%d", k), 0))
				}
			}
			if err := eng.Run(100000); err != nil {
				t.Fatal(err)
			}
			return log
		}
		eager, lazy := run(false), run(true)
		if !slices.Equal(eager, lazy) {
			t.Fatalf("seed %d: lazy pop order differs from eager\neager %v\nlazy  %v", seed, eager, lazy)
		}
	}
}
