package serve

import (
	"testing"

	"cllm/internal/dtype"
	"cllm/internal/mem"
	"cllm/internal/sim"
	"cllm/internal/tee"
	"cllm/internal/trace"
)

// captureDrained runs fn with drainTestHook recording the replicas of the
// run it drives, and returns them.
func captureDrained(t *testing.T, fn func()) []*scheduler {
	t.Helper()
	var reps []*scheduler
	drainTestHook = func(rs []*scheduler, _ []Role) { reps = rs }
	defer func() { drainTestHook = nil }()
	fn()
	if len(reps) == 0 {
		t.Fatal("run drained no replicas")
	}
	return reps
}

// prefixPressureBackend is an enclave with 17 KV blocks of 16 tokens: four
// requests sharing a 4-block prefix and needing 3 private blocks each fill
// it, so a fifth acquires the prefix and then fails to grow.
func prefixPressureBackend() (Backend, Config) {
	m := tinyModel()
	wl := trace.Workload{Model: m, Kind: dtype.BF16, InputLen: 96, OutputLen: 8}
	p := tee.Baremetal()
	p.Name = "tiny-enclave"
	p.EPC = mem.EPC{Size: int64(trace.WeightFootprint(wl)) + 17*16*m.KVCacheBytesPerToken(2), PageInCostFactor: 1}
	cfg := Config{Workload: wl, Rate: 1, Requests: 5, Seed: 1, BlockTokens: 16, PrefixSharing: true, LengthJitter: -1}
	return cpuBackend(p), cfg
}

// TestEveryHoldEndingPathDrains drives each path that ends or moves a
// request's KV hold through a real run. After the run drains, every
// replica's pool must pass CheckConservation with no live hold left — a
// path that forgot to release, park or discard a hold leaves it
// registered.
func TestEveryHoldEndingPathDrains(t *testing.T) {
	for _, tc := range []struct {
		name string
		// run drives the path and returns the drained replicas; it fails
		// the test if the run did not reach the path.
		run func(t *testing.T) []*scheduler
	}{
		{"completion", func(t *testing.T) []*scheduler {
			var rep *Report
			reps := captureDrained(t, func() {
				var err error
				if rep, err = Run(cpuBackend(tee.TDX()), tinyConfig(20, 30)); err != nil {
					t.Fatal(err)
				}
			})
			if rep.Completed != 30 {
				t.Fatalf("completed %d of 30", rep.Completed)
			}
			return reps
		}},
		{"recompute preemption", func(t *testing.T) []*scheduler {
			be, cfg := preemptionHeavyConfig()
			var rep *Report
			reps := captureDrained(t, func() {
				var err error
				if rep, err = Run(be, cfg); err != nil {
					t.Fatal(err)
				}
			})
			if rep.Preemptions == 0 || rep.SwapOuts != 0 || rep.Completed != cfg.Requests {
				t.Fatalf("preemptions %d, swap-outs %d, completed %d of %d",
					rep.Preemptions, rep.SwapOuts, rep.Completed, cfg.Requests)
			}
			return reps
		}},
		{"swap preemption and swap-in", func(t *testing.T) []*scheduler {
			be, cfg := preemptionHeavyConfig()
			cfg.PreemptPolicy = PreemptSwap
			var rep *Report
			reps := captureDrained(t, func() {
				var err error
				if rep, err = Run(be, cfg); err != nil {
					t.Fatal(err)
				}
			})
			if rep.SwapOuts == 0 || rep.SwapIns != rep.SwapOuts || rep.Completed != cfg.Requests {
				t.Fatalf("swap-outs %d, swap-ins %d, completed %d of %d",
					rep.SwapOuts, rep.SwapIns, rep.Completed, cfg.Requests)
			}
			return reps
		}},
		{"crash with swapped requests queued", func(t *testing.T) []*scheduler {
			be, cfg := preemptionHeavyConfig()
			cfg.PreemptPolicy = PreemptSwap
			cfg.RecoverySec = 0.01
			for at := 0.05; at < 1; at += 0.05 {
				cfg.Faults.Plan = append(cfg.Faults.Plan, FailPoint{TimeSec: at})
			}
			var rep *Report
			reps := captureDrained(t, func() {
				var err error
				if rep, err = Run(be, cfg); err != nil {
					t.Fatal(err)
				}
			})
			// Nothing is dropped under the default requeue policy, so a swap
			// copy that was never swapped back in was discarded by a crash
			// while its request sat in the queue.
			if rep.Crashes == 0 || rep.Dropped != 0 || rep.SwapIns >= rep.SwapOuts || rep.Completed != cfg.Requests {
				t.Fatalf("crashes %d, dropped %d, swap-outs %d, swap-ins %d, completed %d of %d",
					rep.Crashes, rep.Dropped, rep.SwapOuts, rep.SwapIns, rep.Completed, cfg.Requests)
			}
			return reps
		}},
		{"deadline drop of a swapped queued request", func(t *testing.T) []*scheduler {
			be, cfg := preemptionHeavyConfig()
			cfg.PreemptPolicy = PreemptSwap
			cfg.Faults.Admission = AdmitDeadline
			cfg.DeadlineSec = 0.003
			var rep *Report
			reps := captureDrained(t, func() {
				var err error
				if rep, err = Run(be, cfg); err != nil {
					t.Fatal(err)
				}
			})
			// Without crashes, a swap copy never swapped back in belongs to a
			// request dropped from the queue.
			if rep.DroppedByReason[DropDeadlineExpired] == 0 || rep.SwapIns >= rep.SwapOuts ||
				rep.Completed+rep.Dropped != cfg.Requests {
				t.Fatalf("deadline drops %d, swap-outs %d, swap-ins %d, completed %d + dropped %d of %d",
					rep.DroppedByReason[DropDeadlineExpired], rep.SwapOuts, rep.SwapIns, rep.Completed, rep.Dropped, cfg.Requests)
			}
			return reps
		}},
		{"disaggregated handoff", func(t *testing.T) []*scheduler {
			// The source releases the hold when the drain completes and the
			// destination parks the copy at drain+nic, strictly later; a
			// hold still registered at the source would panic there.
			cfg := tinyConfig(25, 40)
			cfg.Workload.OutputLen = 16
			var rep *FleetReport
			reps := captureDrained(t, func() { rep = runDisagg(t, cfg) })
			a := rep.Aggregate
			if a.HandoffsOut == 0 || a.HandoffsIn == 0 || a.Completed != 40 {
				t.Fatalf("handoffs out %d, in %d, completed %d of 40", a.HandoffsOut, a.HandoffsIn, a.Completed)
			}
			return reps
		}},
		{"admission failure after prefix acquisition", func(t *testing.T) []*scheduler {
			be, cfg := prefixPressureBackend()
			if err := cfg.normalize(); err != nil {
				t.Fatal(err)
			}
			s, err := newScheduler(be, &cfg, sim.NewEngine(), newNoise(be, cfg.Seed))
			if err != nil {
				t.Fatal(err)
			}
			states := make([]*reqState, 5)
			for i := range states {
				states[i] = &reqState{req: Request{ID: i, InputLen: 96, OutputLen: 8, PrefixID: 1, PrefixLen: 64}}
				s.queue.PushBack(states[i])
			}
			s.kick() // one admission pass over all five
			if len(s.running) != 4 || s.queue.Len() != 1 || s.cfg.MaxBatch <= 4 {
				t.Fatalf("admitted %d, queued %d, batch cap %d; want 4, 1 and room for more",
					len(s.running), s.queue.Len(), s.cfg.MaxBatch)
			}
			// The fifth request pinned the prefix, failed to grow, and
			// released: its hold is empty and only the four pin the prefix.
			if h := &states[4].kv; h.owner != nil || len(h.pins) != 0 {
				t.Fatalf("failed admission kept its hold: %d private, %d pins", h.private, len(h.pins))
			}
			if refs := states[0].kv.pins[0].refs; refs != 4 {
				t.Fatalf("prefix root has %d refs, want 4", refs)
			}
			if err := s.eng.Run(1 << 20); err != nil {
				t.Fatal(err)
			}
			for _, st := range states {
				if st.phase != phaseFinished {
					t.Fatalf("request %d did not finish (phase %d)", st.req.ID, st.phase)
				}
			}
			return []*scheduler{s}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, s := range tc.run(t) {
				if err := s.kv.CheckConservation(); err != nil {
					t.Errorf("replica %d: %v", i, err)
				}
				if n := len(s.kv.holds); n != 0 {
					t.Errorf("replica %d: %d live holds after the run drained", i, n)
				}
			}
		})
	}
}
