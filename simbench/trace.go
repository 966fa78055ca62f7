package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/pprof"
	"time"

	"cllm"
	"cllm/internal/hw"
	"cllm/internal/obs"
	"cllm/internal/perf"
	"cllm/internal/serve"
	"cllm/internal/sim"
	"cllm/internal/stats"
)

// perLayer lists the metrics a traced run prints (BENCHMARK.json
// "per_layer"). A layer's share is its replayed time ÷ the untraced wall_s
// where the benchmark can replay the layer's calls, and its profile_share
// the layer's fraction of profiled CPU time.
var perLayer = []metricDef{
	{"sim.engine.events_per_req", "count"},
	{"sim.engine.ns_per_event", "ns"},
	{"sim.engine.share", "fraction"},
	{"sim.engine.profile_share", "fraction"},
	{"sim.noise.samples_per_req", "count"},
	{"sim.noise.ns_per_sample", "ns"},
	{"sim.noise.share", "fraction"},
	{"sim.noise.profile_share", "fraction"},
	{"workload.arrivals.ns_per_req", "ns"},
	{"workload.arrivals.resident_bytes_per_req", "B"},
	{"workload.arrivals.share", "fraction"},
	{"workload.arrivals.profile_share", "fraction"},
	{"perf.coster.calls_per_round", "count"},
	{"perf.coster.hit_ratio", "fraction"},
	{"perf.coster.ns_per_hit", "ns"},
	{"perf.coster.ns_per_miss", "ns"},
	{"perf.coster.share", "fraction"},
	{"perf.coster.profile_share", "fraction"},
	{"serve.kv.grow_ns", "ns"},
	{"serve.kv.release_ns", "ns"},
	{"serve.kv.dedup_ns_per_round", "ns"},
	{"serve.kv.pins_per_round", "count"},
	{"serve.kv.prefix_hit_ratio", "fraction"},
	{"serve.kv.peak_blocks", "count"},
	{"serve.kv.share", "fraction"},
	{"serve.kv.profile_share", "fraction"},
	{"serve.sched.rounds_per_req", "count"},
	{"serve.sched.mean_batch", "count"},
	{"serve.sched.host_ns_per_round", "ns"},
	{"serve.sched.share", "fraction"},
	{"serve.fleet.dispatch_share", "fraction"},
	{"serve.fleet.handoffs_per_req", "count"},
	{"serve.fleet.handoff_fallback_ratio", "fraction"},
	{"serve.fleet.merge_ns", "ns"},
	{"stats.report.ns_per_sample", "ns"},
	{"stats.report.finalize_ns", "ns"},
	{"stats.report.share", "fraction"},
	{"stats.report.profile_share", "fraction"},
	{"obs.attrib.ns_per_event", "ns"},
	{"obs.attrib.share", "fraction"},
	{"obs.attrib.profile_share", "fraction"},
	{"obs.export.ns", "ns"},
	{"obs.export.bytes", "B"},
	{"obs.export.profile_share", "fraction"},
	{"cllm.setup.ns_per_run", "ns"},
	{"cllm.setup.runs", "count"},
	{"cllm.setup.profile_share", "fraction"},
	{"model.forward.share", "fraction"},
	{"runtime.gc.share", "fraction"},
	{"runtime.gc.cycles", "count"},
	{"unattributed.share", "fraction"},
	{"trace.overhead", "ratio"},
}

// profiledLayers are the layers the CPU profile charges time to.
var profiledLayers = []string{
	"sim.engine", "sim.noise", "workload.arrivals", "perf.coster", "serve.kv", "serve.sched",
	"serve.fleet", "stats.report", "obs.attrib", "obs.export", "cllm.setup", "model.forward", "runtime.gc",
}

// keepEvents bounds the event prefix a traced run keeps for replaying the
// attribution and export layers.
const keepEvents = 200_000

// counter is the traced run's observer: it counts the scheduler's calls
// into each layer by their visible effects and keeps a bounded prefix of
// the stream.
type counter struct {
	events, arrivals, handoffs, retries  int
	rounds, decodeRounds, decodeBatchSum int
	prefillRounds, swapRounds            int
	kept                                 []serve.Event
	keptSamples                          []serve.Sample
}

func (c *counter) Event(ev serve.Event) {
	c.events++
	switch ev.Kind {
	case serve.EvArrive:
		c.arrivals++
	case serve.EvHandoff:
		c.handoffs++
	case serve.EvRetry:
		c.retries++
	case serve.EvDecodeRound:
		c.rounds++
		if ev.DecodeSec > 0 {
			c.decodeRounds++
			c.decodeBatchSum += ev.Hist
		}
		if ev.PrefillSec > 0 {
			c.prefillRounds++
		}
		if ev.SwapSec > 0 {
			c.swapRounds++
		}
	}
	if len(c.kept) < keepEvents {
		c.kept = append(c.kept, ev)
	}
}

func (c *counter) Sample(s serve.Sample) {
	if len(c.keptSamples) < keepEvents {
		c.keptSamples = append(c.keptSamples, s)
	}
}

// traced produces the per-layer metrics: untraced repetitions for the
// wall-time base, profiled repetitions for the CPU shares, one repetition
// with the counting observer, and timed replays of each layer's calls.
func (b *bench) traced(sess *cllm.Session, d time.Duration, setupSec float64) (map[string]float64, error) {
	base, err := b.timedReps(sess, d/2, nil)
	if err != nil {
		return nil, err
	}
	wall := median(mapReps(base, func(r repStats) float64 { return r.wall }))

	var prof profileShares
	var buf bytes.Buffer
	var profErr error
	profiled, err := b.timedReps(sess, d/2, func(start bool) {
		if start {
			buf.Reset()
			profErr = pprof.StartCPUProfile(&buf)
			return
		}
		pprof.StopCPUProfile()
		if profErr == nil {
			profErr = prof.add(buf.Bytes())
		}
	})
	if err != nil {
		return nil, err
	}
	if profErr != nil {
		return nil, fmt.Errorf("cpu profile: %w", profErr)
	}
	m := map[string]float64{}
	attributed := 0.0
	for _, l := range profiledLayers {
		s := prof.share(l)
		m[l+".profile_share"] = s
		attributed += s
	}
	m["unattributed.share"] = max(0, 1-attributed)
	// Layers without a replay report their profile share as their share.
	for _, l := range []string{"serve.sched", "model.forward", "runtime.gc"} {
		m[l+".share"] = m[l+".profile_share"]
	}
	m["serve.fleet.dispatch_share"] = m["serve.fleet.profile_share"]
	delete(m, "serve.fleet.profile_share")
	m["runtime.gc.cycles"] = median(mapReps(profiled, func(r repStats) float64 { return float64(r.gcCycles) }))
	m["cllm.setup.ns_per_run"] = setupSec * 1e9
	m["cllm.setup.runs"] = 1
	m["stats.report.ns_per_sample"], m["stats.report.finalize_ns"] = sketchNs()

	if b.spec.serve == nil {
		// Experiments take no observer: every share is the profile's, and
		// the overhead is the profiler's own.
		for _, l := range profiledLayers {
			m[l+".share"] = m[l+".profile_share"]
		}
		ids, _ := b.sweepExperiments()
		m["cllm.setup.runs"] = float64(len(ids))
		m["trace.overhead"] = median(mapReps(profiled, func(r repStats) float64 { return r.wall })) / wall
		return m, nil
	}

	c := &counter{}
	t0 := time.Now()
	ir, err := b.spec.runInternal(b.n, b.seed, c)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	m["trace.overhead"] = time.Since(t0).Seconds() / wall
	b.record("traced run", checkInternal(ir.rep))
	if ir.attrib != nil && len(ir.attrib.Report("").Violations) > 0 {
		b.record("traced attribution", fmt.Errorf("violations: %v", ir.attrib.Report("").Violations))
	}
	if ir.rep.TotalTokens != b.totalTokens {
		b.record("traced run", fmt.Errorf("traced run produced %d tokens, untraced %d", ir.rep.TotalTokens, b.totalTokens))
	}
	b.layerCounts(m, c, ir, wall)
	return m, nil
}

// layerCounts turns the traced run's counts into per-layer metrics and
// replays each layer's calls at the run's shapes to time them.
func (b *bench) layerCounts(m map[string]float64, c *counter, ir *internalRun, wall float64) {
	n := float64(b.n)
	rep := ir.rep
	rounds := float64(c.rounds)
	perRound := func(x int) float64 { return float64(x) / math.Max(rounds, 1) }

	m["serve.sched.rounds_per_req"] = rounds / n
	meanBatch := float64(c.decodeBatchSum) / math.Max(float64(c.decodeRounds), 1)
	m["serve.sched.mean_batch"] = meanBatch
	m["serve.sched.host_ns_per_round"] = m["serve.sched.profile_share"] * wall * 1e9 / math.Max(rounds, 1)

	// Engine events: one per arrival, one per round, two per handoff
	// (drain, then delivery) and one per retry. Fleets schedule every
	// arrival up front; a single replica schedules one epoch at a time.
	events := c.arrivals + c.rounds + 2*c.handoffs + c.retries
	m["sim.engine.events_per_req"] = float64(events) / n
	depth := b.n / 2
	if ir.fleet == nil {
		depth = min(b.n, serve.DefaultEpochRequests) / 2
	}
	m["sim.engine.ns_per_event"] = engineNsPerEvent(max(depth, 1))
	m["sim.engine.share"] = m["sim.engine.ns_per_event"] * float64(events) / 1e9 / wall

	// One noise draw per round.
	m["sim.noise.samples_per_req"] = rounds / n
	m["sim.noise.ns_per_sample"] = noiseNsPerSample()
	m["sim.noise.share"] = m["sim.noise.ns_per_sample"] * rounds / 1e9 / wall

	// Step costing: a chunk step, a decode step and a swap copy per round
	// that has them, plus the source-drain costing of each handoff.
	calls := c.prefillRounds + c.decodeRounds + c.swapRounds + c.handoffs
	misses := 0
	for _, cs := range ir.costers {
		misses += costerEntries(cs)
	}
	m["perf.coster.calls_per_round"] = perRound(calls)
	if calls > 0 {
		m["perf.coster.hit_ratio"] = math.Max(0, 1-float64(misses)/float64(calls))
	}
	hitNs, missNs := costerNs(ir)
	m["perf.coster.ns_per_hit"], m["perf.coster.ns_per_miss"] = hitNs, missNs
	m["perf.coster.share"] = (float64(calls-misses)*hitNs + float64(misses)*missNs) / 1e9 / wall

	// KV blocks and arrivals: regenerate the run's arrivals (timed, the
	// arrival layer's replay) and re-issue its block-manager calls. The
	// replay covers the kept prefix of the stream; its time scales to the
	// whole run by the event count.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	arrivals, err := serve.Arrivals(ir.cfg)
	arrNs := float64(time.Since(t0).Nanoseconds())
	runtime.ReadMemStats(&m1)
	if err == nil && len(arrivals) > 0 {
		m["workload.arrivals.ns_per_req"] = arrNs / float64(len(arrivals))
		m["workload.arrivals.resident_bytes_per_req"] = float64(m1.HeapAlloc-min(m0.HeapAlloc, m1.HeapAlloc)) / float64(len(arrivals))
		m["workload.arrivals.share"] = arrNs / 1e9 / wall
	}
	if kv, err := kvReplay(c.kept, arrivals, ir.cfg); err == nil && len(c.kept) > 0 {
		m["serve.kv.grow_ns"] = perCall(kv.grow, kv.grows)
		m["serve.kv.release_ns"] = perCall(kv.release, kv.releases)
		m["serve.kv.dedup_ns_per_round"] = perCall(kv.dedup, kv.dedups)
		m["serve.kv.pins_per_round"] = float64(kv.pins) / float64(max(kv.rounds, 1))
		m["serve.kv.share"] = kv.total() * float64(c.events) / float64(len(c.kept)) / 1e9 / wall
	}
	if hit := rep.PrefixCacheHitTokens + rep.PrefixCacheMissTokens; hit > 0 {
		m["serve.kv.prefix_hit_ratio"] = float64(rep.PrefixCacheHitTokens) / float64(hit)
	}
	m["serve.kv.peak_blocks"] = float64(rep.PeakKVBlocksInUse)

	if ir.fleet != nil {
		m["serve.fleet.merge_ns"] = timeNs(20, func() { serve.MergeReports(rep.OfferedRate, ir.fleet.PerReplica) })
	}
	m["serve.fleet.handoffs_per_req"] = float64(rep.HandoffsOut) / n
	if rep.HandoffsOut > 0 {
		m["serve.fleet.handoff_fallback_ratio"] = float64(rep.HandoffFallbacks) / float64(rep.HandoffsOut)
	}

	// Report: three sketch samples (TTFT, TPOT, latency) per completion.
	m["stats.report.share"] = (m["stats.report.ns_per_sample"]*3*float64(rep.Completed) + m["stats.report.finalize_ns"]) / 1e9 / wall

	// Attribution and export replay the kept event prefix.
	attribNs := attribNsPerEvent(c.kept)
	m["obs.attrib.ns_per_event"] = attribNs
	if ir.attrib != nil {
		m["obs.attrib.share"] = attribNs * float64(c.events) / 1e9 / wall
	}
	m["obs.export.ns"], m["obs.export.bytes"] = exportCost(c.kept, c.keptSamples, rep)
}

// timeNs returns the median nanoseconds of reps calls of f.
func timeNs(reps int, f func()) float64 {
	var xs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		xs = append(xs, float64(time.Since(t0).Nanoseconds()))
	}
	return median(xs)
}

// engineNsPerEvent times the event engine in steady state at a pending
// depth: every event reschedules one more at a random future time until
// the budget runs out.
func engineNsPerEvent(depth int) float64 {
	eng := sim.NewEngine()
	rng := rand.New(rand.NewSource(1))
	budget := 4 * depth
	if budget < 200_000 {
		budget = 200_000
	}
	var fn func(*sim.Engine)
	fn = func(e *sim.Engine) {
		if budget > 0 {
			budget--
			e.Schedule(sim.Time(rng.ExpFloat64()*float64(depth)), fn)
		}
	}
	for i := 0; i < depth; i++ {
		eng.Schedule(sim.Time(rng.Float64()*float64(depth)), fn)
	}
	total := depth + budget
	t0 := time.Now()
	if err := eng.Run(int64(total) + 1); err != nil {
		return 0
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(total)
}

// noiseNsPerSample times the step-noise draw of a CPU TEE replica.
func noiseNsPerSample() float64 {
	n := sim.NewNoise(1, hw.NoiseBase, hw.MemEncryptJitter, hw.OutlierProb, hw.OutlierScale)
	const draws = 1_000_000
	sink := 0.0
	t0 := time.Now()
	for i := 0; i < draws; i++ {
		sink += n.Sample(0.05, true)
	}
	ns := float64(time.Since(t0).Nanoseconds()) / draws
	runtime.KeepAlive(sink)
	return ns
}

// costerEntries counts a coster's memoized shapes — each one a miss. The
// coster keeps no counters and exposes no table size, so this reads the
// lengths of its private memo maps; it returns 0 if they are renamed.
func costerEntries(c *perf.StepCoster) int {
	v := reflect.ValueOf(c).Elem()
	n := 0
	for _, f := range []string{"decode", "chunk", "swap"} {
		if fv := v.FieldByName(f); fv.IsValid() && fv.Kind() == reflect.Map {
			n += fv.Len()
		}
	}
	return n
}

// costerNs times decode-step costing on a fresh coster for the run's
// first backend: the first call per shape misses, later calls hit.
func costerNs(ir *internalRun) (hitNs, missNs float64) {
	be, err := tdxBackend(1)
	if err != nil {
		return 0, 0
	}
	c, err := serve.NewStepCoster(be, ir.cfg)
	if err != nil {
		return 0, 0
	}
	const shapes = 2000
	t0 := time.Now()
	for i := 0; i < shapes; i++ {
		c.DecodeTime(1+i%32, 64+i, 0)
	}
	missNs = float64(time.Since(t0).Nanoseconds()) / shapes
	const hits = 200_000
	t0 = time.Now()
	for i := 0; i < hits; i++ {
		j := i % shapes
		c.DecodeTime(1+j%32, 64+j, 0)
	}
	hitNs = float64(time.Since(t0).Nanoseconds()) / hits
	return hitNs, missNs
}

// kvReplay re-issues the traced run's block-manager calls, read off the
// kept event prefix, against one fresh BlockManager per replica and times
// each call kind: a prefix pin (when sharing) and a Grow to the prefill
// target per admission, a dedup over the replica's running set and a
// one-token Grow per running request on every decode round, and a Release
// per finish, preemption, drop or launched handoff.
type kvTimes struct {
	grow, release, pin, dedup     float64 // ns, summed until perCall
	grows, releases, pins, dedups int
	rounds                        int
}

func kvReplay(events []serve.Event, arrivals []serve.Request, cfg serve.Config) (kvTimes, error) {
	var t kvTimes
	// Single calls take tens of nanoseconds, so each timing drops the
	// clock's own cost.
	clockNs := timeNs(1001, func() {})
	lap := func(t0 time.Time) float64 { return max(0, float64(time.Since(t0).Nanoseconds())-clockNs) }
	be, err := tdxBackend(cfg.Seed)
	if err != nil {
		return t, err
	}
	budget, err := be.KVBudgetBytes(cfg.Workload)
	if err != nil {
		return t, err
	}
	perToken := cfg.Workload.Model.KVCacheBytesPerToken(cfg.Workload.Kind.Size())
	byID := make(map[int]serve.Request, len(arrivals))
	for _, r := range arrivals {
		byID[r.ID] = r
	}
	type replica struct {
		bm  *serve.BlockManager
		ids []int
		ctx map[int]int
	}
	reps := map[int]*replica{}
	get := func(i int) (*replica, error) {
		if r, ok := reps[i]; ok {
			return r, nil
		}
		bm, err := serve.NewBlockManager(budget, 16, perToken, cfg.PrefixSharing)
		if err != nil {
			return nil, err
		}
		r := &replica{bm: bm, ctx: map[int]int{}}
		reps[i] = r
		return r, nil
	}
	for _, ev := range events {
		r, err := get(ev.Replica)
		if err != nil {
			return t, err
		}
		switch ev.Kind {
		case serve.EvAdmit:
			if req := byID[ev.ReqID]; cfg.PrefixSharing && req.PrefixID != 0 {
				t0 := time.Now()
				r.bm.AcquirePrefix(ev.ReqID, uint64(req.PrefixID), req.PrefixLen)
				t.pin += lap(t0)
				t.pins++
			}
			t0 := time.Now()
			r.bm.Grow(ev.ReqID, ev.Tokens)
			t.grow += lap(t0)
			t.grows++
			r.ids = append(r.ids, ev.ReqID)
			r.ctx[ev.ReqID] = ev.Tokens
		case serve.EvDecodeRound:
			t.rounds++
			if ev.DecodeSec == 0 || len(r.ids) == 0 {
				continue
			}
			if cfg.PrefixSharing {
				t0 := time.Now()
				r.bm.DedupSavedTokens(r.ids)
				t.dedup += lap(t0)
				t.dedups++
			}
			t0 := time.Now()
			for _, id := range r.ids {
				r.ctx[id]++
				r.bm.Grow(id, r.ctx[id])
			}
			t.grow += lap(t0)
			t.grows += len(r.ids)
		case serve.EvFinish, serve.EvPreempt, serve.EvDrop, serve.EvHandoff:
			if _, ok := r.ctx[ev.ReqID]; !ok {
				continue
			}
			t0 := time.Now()
			r.bm.Release(ev.ReqID)
			t.release += lap(t0)
			t.releases++
			delete(r.ctx, ev.ReqID)
			for i, id := range r.ids {
				if id == ev.ReqID {
					r.ids = append(r.ids[:i], r.ids[i+1:]...)
					break
				}
			}
		}
	}
	return t, nil
}

// total is the replay's whole time in ns.
func (t kvTimes) total() float64 { return t.grow + t.release + t.pin + t.dedup }

func perCall(ns float64, calls int) float64 { return ns / float64(max(calls, 1)) }

// sketchNs times adding a latency sample to a quantile sketch and
// extracting a report's nine quantiles from three filled sketches.
func sketchNs() (perSample, finalize float64) {
	sk := make([]*stats.Sketch, 3)
	for i := range sk {
		s, err := stats.NewSketch(stats.DefaultSketchAlpha)
		if err != nil {
			return 0, 0
		}
		sk[i] = s
	}
	rng := rand.New(rand.NewSource(1))
	const samples = 300_000
	xs := make([]float64, samples)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64())
	}
	t0 := time.Now()
	for i, x := range xs {
		sk[i%3].Add(x)
	}
	perSample = float64(time.Since(t0).Nanoseconds()) / samples
	finalize = timeNs(20, func() {
		for _, s := range sk {
			s.Quantile(0.5)
			s.Quantile(0.95)
			s.Quantile(0.99)
		}
	})
	return perSample, finalize
}

// attribNsPerEvent replays an event stream into a fresh attribution
// engine.
func attribNsPerEvent(events []serve.Event) float64 {
	if len(events) == 0 {
		return 0
	}
	a, err := obs.NewAttributionWindow(0, true, 0, 512)
	if err != nil {
		return 0
	}
	t0 := time.Now()
	for _, ev := range events {
		a.Event(ev)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(events))
}

// exportCost replays the kept stream into a recorder and renders the three
// exporters, returning the nanoseconds and bytes of the whole pass.
func exportCost(events []serve.Event, samples []serve.Sample, rep *serve.Report) (ns, size float64) {
	t0 := time.Now()
	rec := obs.NewRecorderWindow(1, 512)
	for _, ev := range events {
		rec.Event(ev)
	}
	for _, s := range samples {
		rec.Sample(s)
	}
	out := len(rec.PerfettoTrace()) + len(obs.PrometheusText(rep)) + len(rec.TimeseriesCSV())
	return float64(time.Since(t0).Nanoseconds()), float64(out)
}
