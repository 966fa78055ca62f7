package serve

import (
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"cllm/internal/sim"
	"cllm/internal/stats"
	"cllm/internal/tee"
	"cllm/internal/workload"
)

// runSketch runs cfg in sketch mode.
func runSketch(t *testing.T, cfg Config) *Report {
	t.Helper()
	cfg.QuantileMode = QuantileSketch
	rep, order, err := RunAudited(cpuBackend(tee.TDX()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if order != nil {
		t.Fatalf("sketch run returned an admission audit of %d entries; the bounded-memory mode must not retain one", len(order))
	}
	if !rep.Sketched || rep.SketchAlpha <= 0 {
		t.Fatalf("report not marked sketched: Sketched=%v alpha=%g", rep.Sketched, rep.SketchAlpha)
	}
	if rep.Requests != nil {
		t.Fatalf("sketch report retained %d per-request metrics", len(rep.Requests))
	}
	return rep
}

// TestUnsortedTraceAccepted: every runner accepts a trace listed out of
// arrival order in both quantile modes and replays it in stable arrival
// order. The exact single-replica run reproduces the pinned output of the
// runner that scheduled every arrival up front, and the sketch run's
// counters equal the exact run's.
func TestUnsortedTraceAccepted(t *testing.T) {
	be := cpuBackend(tee.TDX())
	cfg := tinyConfig(1, 0)
	cfg.Trace = unsortedTrace()
	exact, order, err := RunAudited(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := outputDigest(struct {
		Report *Report
		Order  AdmitOrder
	}{exact, order})
	if want := digestPins["single/exact/trace-unsorted"]; got != want {
		t.Fatalf("exact run digest %s, want pinned %s", got, want)
	}
	for i, m := range exact.Requests {
		if m.ID != cfg.Trace[i].ID {
			t.Fatalf("request %d reported as ID %d; exact reports keep the trace's own order", i, m.ID)
		}
	}
	sk := runSketch(t, cfg)
	if sk.Completed != exact.Completed || sk.Dropped != exact.Dropped || sk.Unfinished != exact.Unfinished ||
		sk.TotalTokens != exact.TotalTokens || sk.MakespanSec != exact.MakespanSec ||
		sk.GoodRequests != exact.GoodRequests || sk.GoodOutputTokens != exact.GoodOutputTokens ||
		sk.OfferedRate != exact.OfferedRate || sk.PeakKVBlocksInUse != exact.PeakKVBlocksInUse {
		t.Fatalf("sketch counters differ from exact:\n got %+v\nwant %+v", stripSketches(sk), exact)
	}
	for _, mode := range []QuantileMode{QuantileExact, QuantileSketch} {
		c := cfg
		c.QuantileMode = mode
		fr, err := RunFleet(be, c, FleetConfig{Replicas: 2, Policy: LeastLoaded})
		if err != nil {
			t.Fatalf("%v fleet rejected an unsorted trace: %v", mode, err)
		}
		if fr.Aggregate.Completed != len(cfg.Trace) {
			t.Fatalf("%v fleet completed %d of %d", mode, fr.Aggregate.Completed, len(cfg.Trace))
		}
	}
}

// stripSketches clears the raw sketch pointers so reports print readably.
func stripSketches(rep *Report) *Report {
	c := *rep
	c.TTFTSketch, c.TPOTSketch, c.LatencySketch = nil, nil, nil
	return &c
}

// exactRankOf is the order statistic the sketch's error bound is stated
// against: the element of rank floor(q·(n−1)).
func exactRankOf(sorted []float64, q float64) float64 {
	return sorted[int(q*float64(len(sorted)-1))]
}

// TestSketchMatchesExactRun is the cross-mode equivalence check: on the
// same Poisson or scenario load, the sketch run's event stream — and with it every
// counter, the makespan and throughput — is byte-identical to the exact
// run's, and the sketched quantiles land within the documented relative
// error bound of the exact run's order statistics.
func TestSketchMatchesExactRun(t *testing.T) {
	diurnal, err := workload.ParseScenario("diurnal+chat", 20)
	if err != nil {
		t.Fatal(err)
	}
	scenarioCfg := tinyConfig(0, 1000)
	scenarioCfg.Scenario = &diurnal
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"underload", tinyConfig(20, 2000)},
		{"overload-drops", tinyConfig(500, 800)},
		{"scenario", scenarioCfg},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exact, _, err := RunAudited(cpuBackend(tee.TDX()), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sk := runSketch(t, tc.cfg)

			if sk.Completed != exact.Completed || sk.Dropped != exact.Dropped ||
				sk.Unfinished != exact.Unfinished || sk.Preemptions != exact.Preemptions {
				t.Fatalf("request partition differs: sketch %d/%d/%d/%d, exact %d/%d/%d/%d",
					sk.Completed, sk.Dropped, sk.Unfinished, sk.Preemptions,
					exact.Completed, exact.Dropped, exact.Unfinished, exact.Preemptions)
			}
			if sk.TotalTokens != exact.TotalTokens || sk.MakespanSec != exact.MakespanSec ||
				sk.TokensPerSec != exact.TokensPerSec {
				t.Fatalf("token/throughput figures differ: sketch %d/%g/%g, exact %d/%g/%g",
					sk.TotalTokens, sk.MakespanSec, sk.TokensPerSec,
					exact.TotalTokens, exact.MakespanSec, exact.TokensPerSec)
			}
			if sk.SwapOuts != exact.SwapOuts || sk.SwapIns != exact.SwapIns ||
				sk.EvictedBlocks != exact.EvictedBlocks || sk.PeakKVBlocksInUse != exact.PeakKVBlocksInUse {
				t.Fatalf("KV counters differ between modes")
			}
			if sk.GoodRequests != exact.GoodRequests || sk.GoodOutputTokens != exact.GoodOutputTokens ||
				sk.CompletedOutputTokens != exact.CompletedOutputTokens {
				t.Fatalf("goodput counters differ: sketch %d/%d/%d, exact %d/%d/%d",
					sk.GoodRequests, sk.GoodOutputTokens, sk.CompletedOutputTokens,
					exact.GoodRequests, exact.GoodOutputTokens, exact.CompletedOutputTokens)
			}
			if sk.GoodputTokensPerSec != exact.GoodputTokensPerSec || sk.SLOAttainment() != exact.SLOAttainment() {
				t.Fatalf("goodput rates differ: %g vs %g", sk.GoodputTokensPerSec, exact.GoodputTokensPerSec)
			}

			var ttfts, tpots, lats []float64
			for _, m := range exact.Requests {
				ttfts = append(ttfts, m.TTFT)
				lats = append(lats, m.Latency)
				if m.OutputTokens > 1 {
					tpots = append(tpots, m.TPOT)
				}
			}
			for _, c := range []struct {
				name    string
				samples []float64
				sk      *stats.Sketch
				mean    float64
			}{
				{"TTFT", ttfts, sk.TTFTSketch, sk.TTFT.Mean},
				{"TPOT", tpots, sk.TPOTSketch, sk.TPOT.Mean},
				{"latency", lats, sk.LatencySketch, sk.Latency.Mean},
			} {
				sort.Float64s(c.samples)
				if int64(len(c.samples)) != c.sk.Count() {
					t.Fatalf("%s: sketch saw %d samples, exact run has %d", c.name, c.sk.Count(), len(c.samples))
				}
				for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
					want := exactRankOf(c.samples, q)
					got := c.sk.Quantile(q)
					if rel := math.Abs(got-want) / want; rel > sk.SketchAlpha+1e-9 {
						t.Errorf("%s p%g: sketch %g vs exact %g (rel err %.4g > alpha %g)",
							c.name, 100*q, got, want, rel, sk.SketchAlpha)
					}
				}
				wantMean := stats.Mean(c.samples)
				if math.Abs(c.mean-wantMean) > 1e-9*wantMean {
					t.Errorf("%s mean: sketch %g vs exact %g", c.name, c.mean, wantMean)
				}
			}
		})
	}
}

// TestStreamedConservation checks the physical conservation laws of a
// sketch-mode run, where no request state outlives its request: the
// request partition sums to the submissions, and every KV block is
// accounted for (refcount conservation via CheckConservation) once the
// engine drains.
func TestStreamedConservation(t *testing.T) {
	for _, tc := range []struct {
		name string
		rate float64
		n    int
	}{
		{"underload", 30, 400},
		{"overload", 600, 500}, // drops and preemptions
	} {
		t.Run(tc.name, func(t *testing.T) {
			checked := 0
			drainTestHook = func(reps []*scheduler, _ []Role) {
				for _, s := range reps {
					if err := s.kv.CheckConservation(); err != nil {
						t.Errorf("KV refcount conservation broken: %v", err)
					}
					checked++
				}
			}
			defer func() { drainTestHook = nil }()
			rep := runSketch(t, tinyConfig(tc.rate, tc.n))
			if checked != 1 {
				t.Fatalf("conservation hook saw %d schedulers, want 1", checked)
			}
			if got := rep.Completed + rep.Dropped + rep.Unfinished; got != tc.n {
				t.Fatalf("request partition %d+%d+%d = %d, want %d submissions",
					rep.Completed, rep.Dropped, rep.Unfinished, got, tc.n)
			}
			if rep.Unfinished == 0 && rep.KVBlocksInUseAtEnd != 0 {
				t.Fatalf("leaked %d KV blocks with no unfinished requests", rep.KVBlocksInUseAtEnd)
			}
			if rep.Completed > 0 && (rep.TotalTokens < rep.Completed || rep.TTFTSketch.Count() != int64(rep.Completed)) {
				t.Fatalf("token/sketch ledgers inconsistent: tokens %d, completed %d, sketch count %d",
					rep.TotalTokens, rep.Completed, rep.TTFTSketch.Count())
			}
		})
	}
}

// TestFleetSketchMatchesExact: a sketched fleet run dispatches identically
// to the exact one (same event stream), its per-replica and merged
// counters match, and the merged sketch quantiles stay within the error
// bound of the exact aggregate's order statistics.
func TestFleetSketchMatchesExact(t *testing.T) {
	cfg := tinyConfig(60, 300)
	fcfg := FleetConfig{Replicas: 3, Policy: LeastLoaded}
	exact, err := RunFleet(cpuBackend(tee.TDX()), cfg, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	skCfg := cfg
	skCfg.QuantileMode = QuantileSketch
	sketched, err := RunFleet(cpuBackend(tee.TDX()), skCfg, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sketched.Dispatch, exact.Dispatch) {
		t.Fatalf("dispatch differs: %v vs %v", sketched.Dispatch, exact.Dispatch)
	}
	for i := range exact.PerReplica {
		e, s := exact.PerReplica[i], sketched.PerReplica[i]
		if !s.Sketched {
			t.Fatalf("replica %d report not sketched", i)
		}
		if s.Completed != e.Completed || s.TotalTokens != e.TotalTokens || s.MakespanSec != e.MakespanSec {
			t.Fatalf("replica %d counters differ between modes", i)
		}
	}
	ea, sa := exact.Aggregate, sketched.Aggregate
	if !sa.Sketched {
		t.Fatal("merged aggregate not sketched")
	}
	if sa.Completed != ea.Completed || sa.TotalTokens != ea.TotalTokens ||
		sa.GoodRequests != ea.GoodRequests || sa.GoodOutputTokens != ea.GoodOutputTokens ||
		sa.GoodputTokensPerSec != ea.GoodputTokensPerSec {
		t.Fatalf("aggregate counters differ: sketch %+v, exact %+v", sa, ea)
	}
	var lats []float64
	for _, m := range ea.Requests {
		lats = append(lats, m.Latency)
	}
	sort.Float64s(lats)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		want := exactRankOf(lats, q)
		got := sa.LatencySketch.Quantile(q)
		if rel := math.Abs(got-want) / want; rel > sa.SketchAlpha+1e-9 {
			t.Errorf("merged latency p%g: sketch %g vs exact %g (rel err %.4g)", 100*q, got, want, rel)
		}
	}
	// Mixed merge: one sketched replica report plus one exact one still
	// yields a sketched aggregate with conserved counters.
	mixed := MergeReports(cfg.Rate, []*Report{sketched.PerReplica[0], exact.PerReplica[1]})
	if !mixed.Sketched {
		t.Fatal("mixed merge lost sketch mode")
	}
	if want := exact.PerReplica[0].Completed + exact.PerReplica[1].Completed; mixed.Completed != want {
		t.Fatalf("mixed merge completed %d, want %d", mixed.Completed, want)
	}
	if want := int64(len(exact.PerReplica[0].Requests) + len(exact.PerReplica[1].Requests)); mixed.LatencySketch.Count() != want {
		t.Fatalf("mixed merge latency sketch holds %d samples, want %d", mixed.LatencySketch.Count(), want)
	}
}

// TestOnlyRunAuditedKeepsAdmissionAudit: the admission audit trail grows
// with every admission, so only an exact-mode RunAudited records it —
// fleet and sketch-mode replicas keep none.
func TestOnlyRunAuditedKeepsAdmissionAudit(t *testing.T) {
	var audits []int
	drainTestHook = func(reps []*scheduler, _ []Role) {
		for _, s := range reps {
			audits = append(audits, len(s.admitOrder))
		}
	}
	defer func() { drainTestHook = nil }()
	cfg := tinyConfig(60, 50)
	if _, _, err := RunAudited(cpuBackend(tee.TDX()), cfg); err != nil {
		t.Fatal(err)
	}
	runSketch(t, cfg)
	for _, mode := range []QuantileMode{QuantileExact, QuantileSketch} {
		cfg.QuantileMode = mode
		if _, err := RunFleet(cpuBackend(tee.TDX()), cfg, FleetConfig{Replicas: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if want := []int{50, 0, 0, 0, 0, 0}; !reflect.DeepEqual(audits, want) {
		t.Fatalf("audit lengths %v, want %v", audits, want)
	}
}

// heapHighWater samples HeapAlloc while fn runs and returns the peak.
func heapHighWater(fn func()) uint64 {
	var peak atomic.Uint64
	done := make(chan struct{})
	go func() {
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			for {
				old := peak.Load()
				if ms.HeapAlloc <= old || peak.CompareAndSwap(old, ms.HeapAlloc) {
					break
				}
			}
			select {
			case <-done:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	fn()
	close(done)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > peak.Load() {
		peak.Store(ms.HeapAlloc)
	}
	return peak.Load()
}

// TestSketchModeFlatMemory is the bounded-memory regression gate: growing
// the request count 10× in sketch mode must not grow the heap high-water
// mark materially — the whole point of the tentpole. The exact mode's
// per-request ledger grows linearly; the sketch mode's must not. Set
// CLLM_FLATMEM_LARGE=1 to extend the check to 10⁷ requests.
func TestSketchModeFlatMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory regression check is not -short friendly")
	}
	run := func(n int) {
		cfg := tinyConfig(50, n)
		cfg.QuantileMode = QuantileSketch
		rep, err := Run(cpuBackend(tee.Baremetal()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed+rep.Dropped+rep.Unfinished != n {
			t.Fatalf("lost requests: %+v", rep)
		}
	}
	sizes := []int{100_000, 1_000_000}
	if os.Getenv("CLLM_FLATMEM_LARGE") != "" {
		sizes = append(sizes, 10_000_000)
	}
	peaks := make([]uint64, len(sizes))
	for i, n := range sizes {
		runtime.GC()
		peaks[i] = heapHighWater(func() { run(n) })
		t.Logf("%d requests: heap high-water %.1f MiB", n, float64(peaks[i])/(1<<20))
	}
	// Allow generous slack for GC timing jitter: what must NOT happen is
	// the linear growth a retained per-request ledger (~100 B/req, i.e.
	// ~10× per size step here) would show.
	const slackBytes = 32 << 20
	for i := 1; i < len(peaks); i++ {
		if peaks[i] > 2*peaks[0]+slackBytes {
			t.Fatalf("heap high-water grew with request count: %v bytes across %v requests", peaks, sizes)
		}
	}
}

// BenchmarkServeSchedulerSketch mirrors BenchmarkServeScheduler on the
// bounded-memory path, so the bench ledger tracks the streaming runner's
// throughput alongside the exact one's.
func BenchmarkServeSchedulerSketch(b *testing.B) {
	cfg := tinyConfig(50, 2000)
	cfg.QuantileMode = QuantileSketch
	be := cpuBackend(tee.TDX())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(be, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRecycledStateIsFresh takes a sketch-mode state through a prefix
// pin, a swap-out preemption, a swap-in and re-pin, and completion. Once
// observed it must come back from the ledger as the next request's state,
// field for field equal to a freshly allocated one.
func TestRecycledStateIsFresh(t *testing.T) {
	cfg := tinyConfig(1, 1)
	cfg.QuantileMode = QuantileSketch
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	l := newLedger(&cfg)
	m, err := NewBlockManager(64*64, 16, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	m.ConfigureSwapPool(16)
	st := l.own(Request{ID: 1, ArrivalSec: 0.5, InputLen: 96, OutputLen: 4, PrefixID: 3, PrefixLen: 64, Class: 1})
	admit := func() {
		if _, err := m.acquirePrefix(&st.kv, prefixHash(3), 64); err != nil {
			t.Fatal(err)
		}
		if !m.grow(&st.kv, 97) {
			t.Fatal("grow failed on an empty pool")
		}
		m.markComputed(&st.kv, 64)
		st.phase, st.prefilled, st.prefillTarget = phaseRunning, 96, 96
	}
	admit()
	st.admitted, st.admittedAt, st.deadline = true, 0.6, 2.5
	st.generated, st.firstTokenAt = 1, 0.7
	if !m.swapOut(&st.kv, 97) {
		t.Fatal("swap-out rejected")
	}
	st.swapped, st.swappedTokens, st.preemptions, st.phase = true, 97, 1, phaseWaiting
	m.swapIn(&st.kv)
	st.swapped, st.swappedTokens = false, 0
	admit()
	if len(st.kv.pins) != 4 || st.kv.owner != m {
		t.Fatalf("re-admitted state pins %d blocks", len(st.kv.pins))
	}
	// Completion, as finishIteration runs it.
	st.generated, st.attempt = 4, 1
	m.release(&st.kv)
	st.phase, st.finishedAt = phaseFinished, 0.9
	l.acc.observe(st, 1, 1)

	req := Request{ID: 2, ArrivalSec: 1, InputLen: 10, OutputLen: 2}
	got := l.own(req)
	if got != st {
		t.Fatal("own allocated a new state while a finished one was free")
	}
	if want := (reqState{req: req, acc: l.acc}); !reflect.DeepEqual(*got, want) {
		t.Fatalf("recycled state %+v, want a fresh %+v", *got, want)
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestSketchRunRecyclesStates: a sketch-mode replica serving 10⁵ requests
// allocates no more states than it ever had in flight. Every request
// completes, so at the end every state it allocated is on the free list.
func TestSketchRunRecyclesStates(t *testing.T) {
	cfg := tinyConfig(20, 100_000)
	cfg.QuantileMode = QuantileSketch
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	rep, err := NewReplica(cpuBackend(tee.TDX()), cfg, eng, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	err = Drive(eng, cfg, func(req Request) {
		rep.Submit(req)
		peak = max(peak, rep.Outstanding())
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := rep.Report(); r.Completed != cfg.Requests {
		t.Fatalf("completed %d of %d", r.Completed, cfg.Requests)
	}
	states := len(rep.ledger.acc.free)
	if states == 0 || states > peak || peak > 100 {
		t.Fatalf("%d states allocated for %d requests with at most %d in flight", states, cfg.Requests, peak)
	}
	t.Logf("%d states for %d requests, at most %d in flight", states, cfg.Requests, peak)
}
