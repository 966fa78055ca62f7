package cllm

import (
	"fmt"
	"strconv"
	"strings"

	"cllm/internal/autoscale"
	"cllm/internal/model"
	"cllm/internal/obs"
	"cllm/internal/perf"
	"cllm/internal/serve"
	"cllm/internal/trace"
	"cllm/internal/workload"
)

// AutoscaleClass selects one replica class of an elastic heterogeneous
// fleet: a platform plus the replica-count bounds the operator allows.
type AutoscaleClass struct {
	// Platform is a Config.Platform name (baremetal, tdx, sgx, cgpu, ...).
	Platform string
	// Min replicas start warm at t=0 (the standing fleet, default 1);
	// the scaler may activate up to Max (default 2).
	Min, Max int
}

// ParseClasses parses a CLI class list: comma-separated "platform:max" or
// "platform:max:min" entries, e.g. "tdx:4,cgpu:2" or "tdx:4:2". Min
// defaults to 1.
func ParseClasses(s string) ([]AutoscaleClass, error) {
	var out []AutoscaleClass
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.Split(item, ":")
		c := AutoscaleClass{Platform: strings.TrimSpace(parts[0]), Min: 1, Max: 2}
		if c.Platform == "" {
			return nil, fmt.Errorf("cllm: empty platform in class %q", item)
		}
		if len(parts) > 3 {
			return nil, fmt.Errorf("cllm: class %q is not platform:max[:min]", item)
		}
		for i, dst := range []*int{&c.Max, &c.Min} {
			if len(parts) > i+1 {
				n, err := strconv.Atoi(strings.TrimSpace(parts[i+1]))
				if err != nil {
					return nil, fmt.Errorf("cllm: class %q: %w", item, err)
				}
				*dst = n
			}
		}
		if c.Min > c.Max {
			return nil, fmt.Errorf("cllm: class %q has min %d > max %d", item, c.Min, c.Max)
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cllm: empty class list %q", s)
	}
	return out, nil
}

// AutoscaleConfig describes an elastic serving run: a traffic scenario
// against a heterogeneous fleet of TEE replica classes behind a reactive
// target-tracking scaler.
type AutoscaleConfig struct {
	// Model is a zoo name (default "llama2-7b"); DType as in Workload.
	Model, DType string
	// System is the CPU testbed for CPU classes (default EMR1).
	System string
	// Scenario names the traffic scenario (default "bursty"); RatePerSec
	// is its mean arrival rate (default 4).
	Scenario   string
	RatePerSec float64
	// Requests is the number of arrivals to simulate (default 256).
	Requests int
	// Classes are the fleet's replica classes (required).
	Classes []AutoscaleClass
	// Dispatch is "uniform" or "cost-aware" (default "cost-aware").
	Dispatch string
	// IntervalSec / TargetUtil tune the control loop (defaults 15 s / 0.7).
	IntervalSec float64
	TargetUtil  float64
	// DemandAlpha smooths the scaler's demand estimate with an EWMA over
	// control windows: demand = alpha*instant + (1-alpha)*previous. 1 (or
	// the 0 default) keeps the raw one-window estimator bit-identically;
	// smaller values trade reaction speed for fewer cold starts under
	// bursty traffic.
	DemandAlpha float64
	// NoColdStart zeroes every class's cold start — the counterfactual
	// baseline quantifying what enclave build + attestation cost at scale.
	NoColdStart bool
	// MaxBatch caps concurrent sequences per replica (default 32).
	MaxBatch int
	// ChunkTokens enables chunked prefill per replica (0 = monolithic).
	ChunkTokens int
	// PrefixSharing enables each replica's block-level prefix cache; the
	// scenario's shape mixes define the shared-prefix groups.
	PrefixSharing bool
	// PreemptPolicy selects each replica's preemption policy:
	// "recompute" (default), "swap", or "auto" (see ServeConfig).
	PreemptPolicy string
	// Sockets selects the CPU deployment for CPU classes (default 1).
	Sockets int
	// CostBucket quantizes the memoized step costing (tokens; default 1 =
	// exact, bit-identical to the unmemoized cost model). See
	// serve.Config.CostBucket.
	CostBucket int
	// TTFTSLOSec / TPOTSLOSec are SLO targets (defaults 5 s / 0.5 s).
	TTFTSLOSec, TPOTSLOSec float64
	// Seed drives arrivals and every noise stream.
	Seed int64
	// Observe / ObserveWindowSec record the elastic run's lifecycle event
	// stream and time series, as in ServeConfig.
	Observe          bool
	ObserveWindowSec float64
}

// AutoscaleClassReport is one class's consumption over the run.
type AutoscaleClassReport struct {
	Name              string
	HourlyUSD         float64
	ColdStartSec      float64
	CapacityReqPerSec float64
	ReplicaHours      float64
	CostUSD           float64
	PeakActive        int
	Dispatched        int
	ColdStarts        int
}

// AutoscaleWindow is one control-loop interval of the time series.
type AutoscaleWindow struct {
	StartSec        float64
	Arrivals        int
	Backlog         int
	DemandReqPerSec float64
	// Active / Available are per-class replica counts (billed / servable),
	// in Classes order.
	Active, Available []int
}

// AutoscaleReport summarizes an elastic serving run.
type AutoscaleReport struct {
	Scenario    string
	Dispatch    string
	OfferedRate float64
	// Completed / Dropped / Unfinished partition the offered requests.
	Completed, Dropped, Unfinished int
	// Preemptions and swap transfers across the whole elastic fleet.
	Preemptions       int
	SwapOuts, SwapIns int
	SLOAttainment     float64
	// TotalTokens is the fleet's output-token production.
	TotalTokens               int
	GoodputTokensPerSec       float64
	TTFTp50, TTFTp99, TPOTp99 float64
	// ReplicaHours / CostUSD total the rented fleet over the run;
	// USDPerMTok prices SLO-compliant served tokens (Inf when none).
	ReplicaHours, CostUSD, USDPerMTok float64
	ColdStarts                        int
	Classes                           []AutoscaleClassReport
	Windows                           []AutoscaleWindow
	// Observation holds the rendered observability artifacts (nil unless
	// AutoscaleConfig.Observe was set).
	Observation *ServeObservation
}

// Autoscale simulates cost-aware elastic serving across heterogeneous TEE
// replica classes: each class's backend is opened (and attested) like a
// Session, its cold start is derived from the platform's provisioning
// mechanisms (TD page acceptance, enclave EADD+EEXTEND, bounce-buffered
// weight upload, attestation round-trip), and a reactive target-tracking
// scaler activates and drains replicas as the scenario's arrival process
// moves.
func Autoscale(cfg AutoscaleConfig) (*AutoscaleReport, error) {
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("cllm: autoscaling needs at least one replica class")
	}
	if cfg.Model == "" {
		cfg.Model = "llama2-7b"
	}
	if cfg.Scenario == "" {
		cfg.Scenario = "bursty"
	}
	if cfg.RatePerSec <= 0 {
		cfg.RatePerSec = 4
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 256
	}
	kind, err := parseDType(cfg.DType)
	if err != nil {
		return nil, err
	}
	mcfg, err := model.Lookup(cfg.Model)
	if err != nil {
		return nil, err
	}
	scenario, err := workload.ParseScenario(cfg.Scenario, cfg.RatePerSec)
	if err != nil {
		return nil, err
	}
	dispatch := autoscale.CostAware
	if cfg.Dispatch != "" {
		dispatch, err = autoscale.ParseDispatch(cfg.Dispatch)
		if err != nil {
			return nil, err
		}
	}

	preempt, err := serve.ParsePreemptPolicy(cfg.PreemptPolicy)
	if err != nil {
		return nil, err
	}

	wl := trace.Workload{Model: mcfg, Kind: kind}
	scfg := serve.Config{
		Workload:      wl,
		Scenario:      &scenario,
		Requests:      cfg.Requests,
		Seed:          cfg.Seed,
		MaxBatch:      cfg.MaxBatch,
		ChunkTokens:   cfg.ChunkTokens,
		PrefixSharing: cfg.PrefixSharing,
		CostBucket:    cfg.CostBucket,
		PreemptPolicy: preempt,
		TTFTSLOSec:    cfg.TTFTSLOSec, TPOTSLOSec: cfg.TPOTSLOSec,
	}
	var rec *obs.Recorder
	if cfg.Observe {
		rec = obs.NewRecorderWindow(cfg.ObserveWindowSec, 512)
		scfg.Observer = rec
	}
	classes := make([]autoscale.Class, len(cfg.Classes))
	for i, ac := range cfg.Classes {
		sess, err := Open(Config{Platform: ac.Platform, System: cfg.System, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		var be serve.Backend
		if sess.isGPU {
			be = serve.Backend{IsGPU: true, GPU: perf.GPURun{GPU: sess.gpu, Platform: sess.platform, Seed: cfg.Seed}}
		} else {
			be = serve.Backend{CPU: perf.CPURun{
				CPU: sess.cpu, Platform: sess.platform,
				Sockets: cfg.Sockets, AMX: true, Seed: cfg.Seed,
			}}
		}
		hourly, err := sess.serveHourlyUSD(ServeConfig{Sockets: cfg.Sockets})
		if err != nil {
			return nil, err
		}
		coldStart := 0.0
		if !cfg.NoColdStart {
			coldStart = serve.ColdStartSec(be, wl)
		}
		capacity, err := autoscale.ProbeCapacity(be, scfg)
		if err != nil {
			return nil, err
		}
		classes[i] = autoscale.Class{
			Name: ac.Platform, Backend: be, HourlyUSD: hourly,
			ColdStartSec: coldStart, Min: ac.Min, Max: ac.Max,
			CapacityReqPerSec: capacity,
		}
	}

	rep, err := autoscale.Run(classes, autoscale.Config{
		Serve:       scfg,
		Dispatch:    dispatch,
		IntervalSec: cfg.IntervalSec,
		TargetUtil:  cfg.TargetUtil,
		DemandAlpha: cfg.DemandAlpha,
	})
	if err != nil {
		return nil, err
	}

	out := &AutoscaleReport{
		Scenario:            cfg.Scenario,
		Dispatch:            rep.Dispatch,
		OfferedRate:         rep.Aggregate.OfferedRate,
		Completed:           rep.Aggregate.Completed,
		Dropped:             rep.Aggregate.Dropped,
		Unfinished:          rep.Aggregate.Unfinished,
		Preemptions:         rep.Aggregate.Preemptions,
		SwapOuts:            rep.Aggregate.SwapOuts,
		SwapIns:             rep.Aggregate.SwapIns,
		TotalTokens:         rep.Aggregate.TotalTokens,
		SLOAttainment:       rep.SLOAttainment(),
		GoodputTokensPerSec: rep.Aggregate.GoodputTokensPerSec,
		TTFTp50:             rep.Aggregate.TTFT.P50,
		TTFTp99:             rep.Aggregate.TTFT.P99,
		TPOTp99:             rep.Aggregate.TPOT.P99,
		ReplicaHours:        rep.ReplicaHours,
		CostUSD:             rep.CostUSD,
		USDPerMTok:          rep.USDPerMTok,
		ColdStarts:          rep.ColdStarts,
	}
	for i, u := range rep.Usage {
		out.Classes = append(out.Classes, AutoscaleClassReport{
			Name:              u.Name,
			HourlyUSD:         classes[i].HourlyUSD,
			ColdStartSec:      u.ColdStartSec,
			CapacityReqPerSec: classes[i].CapacityReqPerSec,
			ReplicaHours:      u.ReplicaHours,
			CostUSD:           u.CostUSD,
			PeakActive:        u.PeakActive,
			Dispatched:        u.Dispatched,
			ColdStarts:        u.ColdStarts,
		})
	}
	for _, w := range rep.Windows {
		out.Windows = append(out.Windows, AutoscaleWindow{
			StartSec: w.StartSec, Arrivals: w.Arrivals, Backlog: w.Backlog,
			DemandReqPerSec: w.DemandReqPerSec,
			Active:          w.Active, Available: w.Available,
		})
	}
	if rec != nil {
		out.Observation = buildObservation(rec, nil, rep.Aggregate)
		rec.Recycle()
	}
	return out, nil
}
