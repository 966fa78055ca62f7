package obs

import (
	"fmt"
	"math"
	"sort"

	"cllm/internal/serve"
	"cllm/internal/stats"
)

// reqTrack is one request's reconstructed lifecycle.
type reqTrack struct {
	replica                         int
	arrive, admit, firstTok, finish float64
	hasAdmit, finished, dropped     bool
	generated, preempts             int
	slo                             bool
}

// ReconcileReport replays a run's recorded event stream and checks that it
// reconstructs the aggregate serve.Report exactly: request partition
// counters, preemption and swap counters, total tokens (summed from the
// per-round production events), every completed request's metrics, the
// latency quantiles and the goodput figures — all compared with exact
// (bit-level) float equality, since events carry the same sim-clock
// timestamps the report was computed from. It returns one message per
// mismatch; an empty slice is proof of events ↔ aggregate conservation.
//
// The per-request comparison assumes requests were dispatched in
// arrival-time order (true for every built-in generator; explicit traces
// must be sorted by ArrivalSec), because the report lists requests in
// dispatch order per replica.
func ReconcileReport(events []serve.Event, rep *serve.Report) []string {
	var bad []string
	mismatch := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	tracks := map[int]*reqTrack{}
	order := map[int][]int{} // replica -> request IDs in arrival order
	var arrivals, drops, finishes, preempts, swapOuts, swapIns, roundTokens int
	var handoffs, handoffTokens int
	var handoffBytes float64
	var crashes, recovers, sheds, retries int
	var downtime float64
	var dropsByReason [serve.NumDropReasons]int
	for _, ev := range events {
		switch ev.Kind {
		case serve.EvCrash:
			// Per-replica (ReqID -1): no request track. XferSec is the
			// recovery ahead; summing it in event order reproduces the
			// report's accumulator bit for bit.
			crashes++
			downtime += ev.XferSec
			continue
		case serve.EvRecover:
			recovers++
			continue
		}
		t := tracks[ev.ReqID]
		if t == nil && ev.Kind != serve.EvDecodeRound {
			t = &reqTrack{}
			tracks[ev.ReqID] = t
		}
		switch ev.Kind {
		case serve.EvArrive:
			arrivals++
			t.replica = ev.Replica
			t.arrive = ev.TimeSec
			order[ev.Replica] = append(order[ev.Replica], ev.ReqID)
		case serve.EvAdmit:
			if !t.hasAdmit {
				t.hasAdmit = true
				t.admit = ev.TimeSec
			}
		case serve.EvFirstToken:
			t.firstTok = ev.TimeSec
		case serve.EvPreempt:
			preempts++
			t.preempts++
		case serve.EvSwapOut:
			swapOuts++
		case serve.EvSwapIn:
			swapIns++
		case serve.EvDrop:
			drops++
			dropsByReason[ev.Drop]++
			t.dropped = true
		case serve.EvShed:
			sheds++
		case serve.EvRetry:
			retries++
		case serve.EvFinish:
			finishes++
			t.finished = true
			t.finish = ev.TimeSec
			t.generated = ev.Tokens
			t.slo = ev.SLOMet
		case serve.EvDecodeRound:
			roundTokens += ev.Tokens
		case serve.EvHandoff:
			handoffs++
			handoffTokens += ev.Tokens
			handoffBytes += ev.Bytes
		}
	}

	check := func(name string, fromEvents, reported int) {
		if fromEvents != reported {
			mismatch("%s: events say %d, report says %d", name, fromEvents, reported)
		}
	}
	check("completed", finishes, rep.Completed)
	check("dropped", drops, rep.Dropped)
	check("unfinished", arrivals-finishes-drops, rep.Unfinished)
	check("preemptions", preempts, rep.Preemptions)
	check("swap-outs", swapOuts, rep.SwapOuts)
	check("swap-ins", swapIns, rep.SwapIns)
	check("total tokens (per-round sum)", roundTokens, rep.TotalTokens)
	check("crashes", crashes, rep.Crashes)
	check("handoffs launched", handoffs, rep.HandoffsOut)
	check("handoff tokens", handoffTokens, rep.HandoffTokens)
	if handoffBytes != rep.HandoffBytes {
		mismatch("handoff bytes: events sum %g, report says %g", handoffBytes, rep.HandoffBytes)
	}
	check("sheds", sheds, rep.Sheds)
	check("retries", retries, rep.Retries)
	for i, n := range dropsByReason {
		check(fmt.Sprintf("dropped[%s]", serve.DropReason(i)), n, rep.DroppedByReason[i])
	}
	if recovers > crashes {
		// A run may end mid-recovery, never the other way around.
		mismatch("recoveries: events say %d recoveries for %d crashes", recovers, crashes)
	}
	if downtime != rep.DowntimeSec {
		mismatch("downtime: events sum %g s, report says %g s", downtime, rep.DowntimeSec)
	}

	if rep.Sketched {
		// Sketched reports carry no per-request ledger: rebuild the three
		// latency sketches from the event stream at the report's alpha.
		// Bucket counts are integers and insertion order is immaterial, so
		// the rebuilt quantiles must match the report's bit for bit; only
		// the means get a tiny relative tolerance, because the report folds
		// its sums in completion order while this rebuild folds in map
		// order, and float addition is not associative.
		reconcileSketched(tracks, rep, mismatch)
		return bad
	}
	if finishes != len(rep.Requests) {
		mismatch("completed requests: events say %d, report lists %d", finishes, len(rep.Requests))
		return bad // element-wise comparison below would misalign
	}

	// Rebuild every completed request's metrics in the report's own order —
	// replicas ascending, dispatch order within each — with the report's
	// arithmetic, then compare element-wise and re-derive the quantiles.
	replicas := make([]int, 0, len(order))
	for id := range order {
		replicas = append(replicas, id)
	}
	sort.Ints(replicas)
	var ttfts, tpots, lats []float64
	goodTokens, goodReqs := 0, 0
	i := 0
	for _, rid := range replicas {
		for _, reqID := range order[rid] {
			t := tracks[reqID]
			if !t.finished {
				continue
			}
			m := serve.RequestMetrics{
				ID:           reqID,
				TTFT:         t.firstTok - t.arrive,
				Latency:      t.finish - t.arrive,
				QueueDelay:   t.admit - t.arrive,
				OutputTokens: t.generated,
				Preemptions:  t.preempts,
				SLOMet:       t.slo,
			}
			if t.generated > 1 {
				m.TPOT = (t.finish - t.firstTok) / float64(t.generated-1)
				tpots = append(tpots, m.TPOT)
			}
			ttfts = append(ttfts, m.TTFT)
			lats = append(lats, m.Latency)
			if m.SLOMet {
				goodReqs++
				goodTokens += m.OutputTokens
			}
			if got := rep.Requests[i]; m != got {
				mismatch("request %d: events reconstruct %+v, report has %+v", reqID, m, got)
			}
			i++
		}
	}
	checkQ := func(name string, xs []float64, got serve.Quantiles) {
		want := serve.Quantiles{}
		if len(xs) > 0 {
			ps := stats.Percentiles(xs, 50, 95, 99)
			want = serve.Quantiles{Mean: stats.Mean(xs), P50: ps[0], P95: ps[1], P99: ps[2]}
		}
		if want != got {
			mismatch("%s quantiles: events reconstruct %+v, report has %+v", name, want, got)
		}
	}
	checkQ("TTFT", ttfts, rep.TTFT)
	checkQ("TPOT", tpots, rep.TPOT)
	checkQ("latency", lats, rep.Latency)
	if rep.MakespanSec > 0 {
		if g := float64(goodTokens) / rep.MakespanSec; g != rep.GoodputTokensPerSec {
			mismatch("goodput: events reconstruct %g tok/s, report has %g", g, rep.GoodputTokensPerSec)
		}
		if g := float64(goodReqs) / rep.MakespanSec; g != rep.GoodRequestsPerSec {
			mismatch("good requests: events reconstruct %g req/s, report has %g", g, rep.GoodRequestsPerSec)
		}
	}
	return bad
}

// ReconcilePhases refolds a run's recorded event stream through a fresh
// Attribution and audits the phase-conservation invariant against the
// aggregate report: every completed request's five phases must sum to its
// latency exactly (the engine's own integer-nanosecond check), the refold
// must finalize exactly the requests the report completed, and the
// attributed latencies must match the report's — per request within the
// nanosecond quantization on exact reports, and within the combined sketch
// error bound on sketched ones. It returns one message per failure; an
// empty slice is proof the phase decomposition partitions measured latency.
func ReconcilePhases(events []serve.Event, rep *serve.Report) []string {
	var bad []string
	mismatch := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	alpha := stats.DefaultSketchAlpha
	if rep.Sketched {
		alpha = rep.SketchAlpha
	}
	a, err := NewAttribution(alpha, false)
	if err != nil {
		return []string{fmt.Sprintf("cannot rebuild attribution: %v", err)}
	}
	var latByID map[int]float64
	var repLatSum float64
	if !rep.Sketched {
		latByID = make(map[int]float64, len(rep.Requests))
		for _, m := range rep.Requests {
			latByID[m.ID] = m.Latency
			repLatSum += m.Latency
		}
	}
	a.onFinalize = func(id, replica int, phaseN [NumPhases]int64, latN int64) {
		if latByID == nil {
			return
		}
		want, ok := latByID[id]
		if !ok {
			mismatch("request %d finalized by events but absent from report", id)
			return
		}
		delete(latByID, id)
		// Each endpoint rounds to its nanosecond once, so the attributed
		// latency sits within the quantization of the report's float value.
		if d := math.Abs(float64(latN)/1e9 - want); d > 1e-8+1e-9*math.Abs(want) {
			mismatch("request %d: attributed latency %g s vs report %g s (drift %g s)", id, float64(latN)/1e9, want, d)
		}
	}
	for _, ev := range events {
		a.Event(ev)
	}
	arep := a.Report(rep.Platform)
	for _, v := range arep.Violations {
		mismatch("phase conservation: %s", v)
	}
	if int(arep.Completed) != rep.Completed {
		mismatch("completed: attribution finalized %d, report says %d", arep.Completed, rep.Completed)
	}
	if int(arep.Dropped) != rep.Dropped {
		mismatch("dropped: attribution saw %d, report says %d", arep.Dropped, rep.Dropped)
	}
	var phaseTot float64
	for _, p := range arep.Phases {
		phaseTot += p.TotalSec
	}
	if !relClose(phaseTot, arep.LatencyTotalSec) {
		mismatch("phase totals sum to %g s, attributed latency total is %g s", phaseTot, arep.LatencyTotalSec)
	}
	if rep.Sketched {
		// Both sketches share one alpha but bin nanosecond-quantized vs raw
		// float values, so bucket boundaries can split them: the medians
		// agree within the combined relative error, not bit-exactly.
		b, c := rep.Latency.P50, arep.LatencyP50Sec
		if tol := 2.1*alpha*math.Max(math.Abs(b), math.Abs(c)) + 1e-8; math.Abs(b-c) > tol {
			mismatch("latency p50: attribution %g s vs sketched report %g s (tolerance %g)", c, b, tol)
		}
	} else {
		for id := range latByID {
			mismatch("request %d completed in report but never finalized by events", id)
		}
		quantTol := 1e-8 + 2e-9*float64(rep.Completed) + 1e-9*math.Abs(repLatSum)
		if d := math.Abs(arep.LatencyTotalSec - repLatSum); d > quantTol {
			mismatch("total latency: attribution %g s vs report %g s (drift %g > %g)", arep.LatencyTotalSec, repLatSum, d, quantTol)
		}
	}
	return bad
}

// relClose reports whether a and b agree within a 1e-9 relative tolerance,
// the slack fold-order differences in float summation can introduce.
func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// reconcileSketched checks a sketched report against the event stream:
// exact counter and quantile equality, tolerance only on the means.
func reconcileSketched(tracks map[int]*reqTrack, rep *serve.Report, mismatch func(string, ...any)) {
	mk := func() *stats.Sketch {
		sk, err := stats.NewSketch(rep.SketchAlpha)
		if err != nil {
			return nil
		}
		return sk
	}
	ttftSk, tpotSk, latSk := mk(), mk(), mk()
	if ttftSk == nil {
		mismatch("sketched report has unusable alpha %g", rep.SketchAlpha)
		return
	}
	goodTokens, goodReqs, completedTokens := 0, 0, 0
	var ttftSum, tpotSum, latSum float64
	for _, t := range tracks {
		if !t.finished {
			continue
		}
		ttft := t.firstTok - t.arrive
		lat := t.finish - t.arrive
		_ = ttftSk.Add(ttft)
		_ = latSk.Add(lat)
		ttftSum += ttft
		latSum += lat
		if t.generated > 1 {
			tpot := (t.finish - t.firstTok) / float64(t.generated-1)
			_ = tpotSk.Add(tpot)
			tpotSum += tpot
		}
		completedTokens += t.generated
		if t.slo {
			goodReqs++
			goodTokens += t.generated
		}
	}
	checkInt := func(name string, fromEvents, reported int) {
		if fromEvents != reported {
			mismatch("%s: events say %d, report says %d", name, fromEvents, reported)
		}
	}
	checkInt("good requests", goodReqs, rep.GoodRequests)
	checkInt("good output tokens", goodTokens, rep.GoodOutputTokens)
	checkInt("completed output tokens", completedTokens, rep.CompletedOutputTokens)
	checkSk := func(name string, sk *stats.Sketch, sum float64, got serve.Quantiles) {
		for _, p := range [...]struct {
			q         float64
			rep, want float64
		}{
			{0.50, got.P50, sk.Quantile(0.50)},
			{0.95, got.P95, sk.Quantile(0.95)},
			{0.99, got.P99, sk.Quantile(0.99)},
		} {
			if p.rep != p.want {
				mismatch("%s p%g: events rebuild %g, report has %g", name, 100*p.q, p.want, p.rep)
			}
		}
		mean := 0.0
		if sk.Count() > 0 {
			mean = sum / float64(sk.Count())
		}
		if !relClose(mean, got.Mean) {
			mismatch("%s mean: events rebuild %g, report has %g", name, mean, got.Mean)
		}
	}
	checkSk("TTFT", ttftSk, ttftSum, rep.TTFT)
	checkSk("TPOT", tpotSk, tpotSum, rep.TPOT)
	checkSk("latency", latSk, latSum, rep.Latency)
	if rep.MakespanSec > 0 {
		if g := float64(goodTokens) / rep.MakespanSec; g != rep.GoodputTokensPerSec {
			mismatch("goodput: events reconstruct %g tok/s, report has %g", g, rep.GoodputTokensPerSec)
		}
		if g := float64(goodReqs) / rep.MakespanSec; g != rep.GoodRequestsPerSec {
			mismatch("good requests rate: events reconstruct %g req/s, report has %g", g, rep.GoodRequestsPerSec)
		}
	}
}
