package cllm

import (
	"fmt"
	"strconv"
	"strings"

	"cllm/internal/autoscale"
	"cllm/internal/serve"
)

// AutoscaleClass selects one replica class of an elastic heterogeneous
// fleet: a platform plus the replica-count bounds the operator allows.
// Each class contributes Max replica slots, numbered fleet-wide in class
// order; a FaultConfig.Plan index names one of these slots.
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

// AutoscaleOptions turns a serving run into an elastic heterogeneous
// fleet: replica classes behind a reactive target-tracking scaler. Every
// other ServeConfig setting (model, load, scheduler, SLOs, faults,
// observation, attribution) applies to the elastic run as to a fixed one,
// per replica where it is a per-replica knob; Sockets and Cores select the
// deployment of CPU classes.
type AutoscaleOptions struct {
	// Classes are the fleet's replica classes (required). Each class's
	// platform opens as a sub-session of the serving session (same testbed,
	// enclave size, seed and attestation policy); the session's own
	// platform does not serve.
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

// AutoscaleWindow is one control-loop interval of the time series:
// StartSec, Arrivals, the Backlog at its end, the scaler's
// DemandReqPerSec estimate, and per-class Active (billed) and Available
// (servable) replica counts in Classes order.
type AutoscaleWindow = autoscale.Window

// AutoscaleReport holds the results only an elastic run has: what the
// rented fleet cost, its cold starts, per-class usage and the control-loop
// series. The request outcomes and latencies are in the ServeReport that
// carries it.
type AutoscaleReport struct {
	Dispatch string
	// ReplicaHours / CostUSD total the rented fleet over the run;
	// USDPerMTok prices SLO-compliant served tokens (Inf when none).
	ReplicaHours, CostUSD, USDPerMTok float64
	ColdStarts                        int
	Classes                           []AutoscaleClassReport
	Windows                           []AutoscaleWindow
}

// runAutoscale simulates cost-aware elastic serving across heterogeneous
// TEE replica classes: each class's backend is opened (and attested) as a
// sub-session, its cold start is derived from the platform's provisioning
// mechanisms (TD page acceptance, enclave EADD+EEXTEND, bounce-buffered
// weight upload, attestation round-trip), and a reactive target-tracking
// scaler activates and drains replicas as the arrival process moves.
func (s *Session) runAutoscale(cfg ServeConfig, scfg serve.Config) (*serve.Report, *AutoscaleReport, error) {
	opts := cfg.Autoscale
	if len(opts.Classes) == 0 {
		return nil, nil, fmt.Errorf("cllm: autoscaling needs at least one replica class")
	}
	dispatch, err := autoscale.ParseDispatch(opts.Dispatch)
	if err != nil {
		return nil, nil, err
	}
	classes := make([]autoscale.Class, len(opts.Classes))
	for i, ac := range opts.Classes {
		sub, err := s.subSession(ac.Platform)
		if err != nil {
			return nil, nil, fmt.Errorf("cllm: autoscale class %q: %w", ac.Platform, err)
		}
		be := sub.serveBackend(cfg)
		hourly, err := sub.serveHourlyUSD(cfg)
		if err != nil {
			return nil, nil, err
		}
		// One costing table per class, shared by its capacity probe and
		// every replica of the class.
		if be.Coster, err = serve.NewStepCoster(be, scfg); err != nil {
			return nil, nil, err
		}
		coldStart := 0.0
		if !opts.NoColdStart {
			coldStart = serve.ColdStartSec(be, scfg.Workload)
		}
		capacity, err := autoscale.ProbeCapacity(be, scfg)
		if err != nil {
			return nil, nil, err
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
		IntervalSec: opts.IntervalSec,
		TargetUtil:  opts.TargetUtil,
		DemandAlpha: opts.DemandAlpha,
	})
	if err != nil {
		return nil, nil, err
	}
	out := &AutoscaleReport{
		Dispatch:     rep.Dispatch,
		ReplicaHours: rep.ReplicaHours,
		CostUSD:      rep.CostUSD,
		USDPerMTok:   rep.USDPerMTok,
		ColdStarts:   rep.ColdStarts,
		Windows:      rep.Windows,
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
	return rep.Aggregate, out, nil
}
