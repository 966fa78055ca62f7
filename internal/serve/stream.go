package serve

import "cllm/internal/stats"

// ledger owns the outcomes of the requests dispatched to one replica,
// wherever they finish: it retains their states in exact mode and hands
// them a streaming accumulator in sketch mode, where finished states are
// recycled (see streamAccum.free).
type ledger struct {
	states []*reqState
	acc    *streamAccum
	n      int
}

func newLedger(cfg *Config) *ledger {
	if cfg.QuantileMode == QuantileSketch {
		return &ledger{acc: newStreamAccum(cfg.SketchAlpha)}
	}
	return &ledger{}
}

// own records an arriving request and returns its state: in sketch mode a
// finished request's recycled state, zeroed, when one is free.
func (l *ledger) own(req Request) *reqState {
	l.n++
	if a := l.acc; a != nil {
		if n := len(a.free); n > 0 {
			st := a.free[n-1]
			a.free = a.free[:n-1]
			*st = reqState{req: req, acc: a}
			return st
		}
		return &reqState{req: req, acc: a}
	}
	st := &reqState{req: req}
	l.states = append(l.states, st)
	return st
}

// report assembles the owned requests' report on s, the owning replica.
func (l *ledger) report(s *scheduler) *Report {
	if l.acc != nil {
		return s.buildStreamReport(l.acc, l.n)
	}
	return s.report(l.states)
}

// streamAccum is a sketch-mode ledger's outcome fold: each request folds
// in as it finishes or drops, so the run retains no per-request state and
// memory is independent of the request count.
type streamAccum struct {
	alpha           float64
	ttft, tpot, lat *stats.Sketch

	completed, dropped                    int
	goodReqs, goodTokens, completedTokens int
	completedByClass                      [NumClasses]int
	goodTokensByClass                     [NumClasses]int

	// free holds the states of finished requests for own to reuse, so a
	// run allocates as many states as it ever has in flight, not one per
	// request. Only completion recycles: a finished request has left every
	// queue, its hold is released, and the handoff closures that captured
	// it ran before it reached its decode replica. Drops are not recycled
	// — they are rare outside fault-injection runs, and a dropped state
	// goes through queue walks and retry bookkeeping that were not written
	// to expect its reuse.
	free []*reqState
}

func newStreamAccum(alpha float64) *streamAccum {
	mk := func() *stats.Sketch {
		sk, err := stats.NewSketch(alpha)
		if err != nil {
			// alpha was validated by Config.normalize; an error here is a
			// programming bug, not a runtime condition.
			panic(err)
		}
		return sk
	}
	return &streamAccum{alpha: alpha, ttft: mk(), tpot: mk(), lat: mk()}
}

// observe folds one finished request in, with the same SLO arithmetic
// report() applies to retained states, and frees its state for reuse: the
// caller must not touch st afterwards.
func (a *streamAccum) observe(st *reqState, ttftSLO, tpotSLO float64) {
	ttft := st.firstTokenAt - st.req.ArrivalSec
	// Simulated times are finite by construction, so Add cannot fail.
	_ = a.ttft.Add(ttft)
	_ = a.lat.Add(st.finishedAt - st.req.ArrivalSec)
	// Single-token requests have no decode phase: TPOT is undefined for
	// them, so they neither join the TPOT sketch nor can fail its SLO.
	tpotOK := true
	if st.generated > 1 {
		tpot := (st.finishedAt - st.firstTokenAt) / float64(st.generated-1)
		tpotOK = tpot <= tpotSLO
		_ = a.tpot.Add(tpot)
	}
	a.completed++
	a.completedTokens += st.generated
	a.completedByClass[st.req.Class]++
	if ttft <= ttftSLO && tpotOK {
		a.goodReqs++
		a.goodTokens += st.generated
		a.goodTokensByClass[st.req.Class] += st.generated
	}
	a.free = append(a.free, st)
}

// buildStreamReport assembles the sketched report of the requests a owns
// after the engine has drained. submitted is how many requests a owns.
func (s *scheduler) buildStreamReport(a *streamAccum, submitted int) *Report {
	makespan := float64(s.eng.Now())
	if s.failEnabled && s.lastProgress < makespan {
		// See report(): crash/recovery events outlive the last request
		// outcome; throughput is measured to the last progress instant.
		makespan = s.lastProgress
	}
	rep := &Report{
		Platform:              s.be.platformName(),
		OfferedRate:           offeredRate(s.cfg),
		Completed:             a.completed,
		Dropped:               a.dropped,
		Unfinished:            submitted - a.completed - a.dropped,
		DroppedByReason:       s.drops,
		Sheds:                 s.sheds,
		Retries:               s.retries,
		Crashes:               s.crashes,
		DowntimeSec:           s.downtimeSec,
		HandoffsOut:           s.handoffsOut,
		HandoffsIn:            s.handoffsIn,
		HandoffFallbacks:      s.handoffFallbacks,
		HandoffTokens:         s.handoffTokens,
		HandoffBytes:          s.handoffBytes,
		CompletedByClass:      a.completedByClass,
		GoodTokensByClass:     a.goodTokensByClass,
		Preemptions:           s.preemptions,
		MakespanSec:           makespan,
		TotalTokens:           s.producedTot,
		KVBlocksTotal:         s.kv.TotalBlocks(),
		PeakKVBlocksInUse:     s.kv.PeakInUse(),
		KVBlocksInUseAtEnd:    s.kv.InUse(),
		KVBlocksCachedAtEnd:   s.kv.CachedBlocks(),
		PrefixCacheHitTokens:  s.kv.HitTokens(),
		PrefixCacheMissTokens: s.kv.MissTokens(),
		EvictedBlocks:         s.kv.EvictedBlocks(),
		SwapOuts:              s.swapOuts,
		SwapIns:               s.swapIns,
		SwapPoolBlocks:        s.kv.SwapPoolBlocks(),
		PeakSwapBlocksInUse:   s.kv.PeakSwapBlocks(),
		SwapBlocksAtEnd:       s.kv.SwappedBlocks(),
		Sketched:              true,
		SketchAlpha:           a.alpha,
		GoodRequests:          a.goodReqs,
		GoodOutputTokens:      a.goodTokens,
		CompletedOutputTokens: a.completedTokens,
		TTFTSketch:            a.ttft,
		TPOTSketch:            a.tpot,
		LatencySketch:         a.lat,
	}
	if rep.MakespanSec > 0 {
		rep.TokensPerSec = float64(rep.TotalTokens) / rep.MakespanSec
		rep.GoodputTokensPerSec = float64(a.goodTokens) / rep.MakespanSec
		rep.GoodRequestsPerSec = float64(a.goodReqs) / rep.MakespanSec
	}
	rep.TTFT = sketchQuantiles(a.ttft)
	rep.TPOT = sketchQuantiles(a.tpot)
	rep.Latency = sketchQuantiles(a.lat)
	return rep
}
