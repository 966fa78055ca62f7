package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"cllm"
	"cllm/internal/autoscale"
	"cllm/internal/serve"
)

// options is the parsed CLI state: every flag binds into exactly one
// field here, and main reads only this struct after flag parsing.
type options struct {
	platforms    string
	system       string
	modelName    string
	dt           string
	rate         float64
	requests     int
	scenario     string
	inLen        int
	outLen       int
	batch        int
	chunkSize    int
	prefixShare  bool
	prefixGroups int
	prefixFrac   float64
	replicas     int
	lbPolicy     string
	topology     string
	autoscale    bool
	classes      string
	dispatch     string
	noColdStart  bool
	targetUtil   float64
	interval     float64
	costBucket   int
	quantileMode string
	sketchAlpha  float64
	rateMults    string
	preempt      string
	format       string
	traceOut     string
	metricsOut   string
	timesOut     string
	obsWindow    float64
	attrib       bool
	attribOut    string
	attribCSV    string
	compare      string
	compareSlack float64
	demandAlpha  float64
	failMTBF     float64
	failPlan     string
	failPolicy   string
	admission    string
	retryMax     int
	retryBackoff float64
	sloTTFT      float64
	sloTPOT      float64
	sockets      int
	seed         int64

	// Derived by the checks (valid after checkFlags returns nil).
	mults       []float64
	preemptPol  serve.PreemptPolicy
	autoClasses []cllm.AutoscaleClass
}

// rejection is one argv the flag binder must refuse, with a substring the
// error message must carry so misuse names the offending flag.
type rejection struct {
	args []string
	want string
}

// flagSpec binds one CLI flag: name and usage are single-sourced here,
// add installs the flag on a FlagSet against its options destination,
// check validates the parsed value (including its interactions with
// other flags), and rejects lists example argument vectors the binding
// must refuse. TestFlagRejections regenerates its cases from rejects, so
// a new validated flag ships its rejection examples in the same entry.
type flagSpec struct {
	name    string
	usage   string
	add     func(fs *flag.FlagSet, name, usage string)
	check   func() error
	rejects []rejection
}

// flagTable is the single source of truth for the CLI surface: every
// flag's name, default, destination and validator in one place.
func flagTable(o *options) []flagSpec {
	return []flagSpec{
		{
			name:  "platform",
			usage: "comma-separated platform list (baremetal|vm|tdx|sgx|gpu|cgpu|...)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.platforms, n, "baremetal,tdx,sgx", u) },
		},
		{
			name:  "system",
			usage: "CPU testbed: EMR1 or EMR2",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.system, n, "EMR1", u) },
		},
		{
			name:  "model",
			usage: "model name (see cllm-infer -models)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.modelName, n, "llama2-7b", u) },
		},
		{
			name:  "dtype",
			usage: "datatype: bf16|int8|f32",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.dt, n, "bf16", u) },
		},
		{
			name:  "rate",
			usage: "base (mean) arrival rate (requests/s)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.Float64Var(&o.rate, n, 8, u) },
			check: func() error {
				if o.rate <= 0 {
					return fmt.Errorf("-rate %g is not positive; pass a mean arrival rate in requests/s", o.rate)
				}
				return nil
			},
			rejects: []rejection{{args: []string{"-rate", "0"}, want: "-rate"}},
		},
		{
			name:  "requests",
			usage: "arrivals per run",
			add:   func(fs *flag.FlagSet, n, u string) { fs.IntVar(&o.requests, n, 48, u) },
		},
		{
			name:  "scenario",
			usage: "traffic scenario: poisson|bursty|diurnal|ramp, chat|rag|agentic, or arrivals+mix (empty = plain Poisson synthesis)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.scenario, n, "", u) },
		},
		{
			name:  "in",
			usage: "mean prompt tokens (ignored with -scenario)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.IntVar(&o.inLen, n, 128, u) },
		},
		{
			name:  "out",
			usage: "mean generated tokens (ignored with -scenario)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.IntVar(&o.outLen, n, 32, u) },
		},
		{
			name:  "batch",
			usage: "max concurrent sequences",
			add:   func(fs *flag.FlagSet, n, u string) { fs.IntVar(&o.batch, n, 32, u) },
		},
		{
			name:  "chunk-size",
			usage: "chunked-prefill budget in prompt tokens per iteration (0 = monolithic prefill)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.IntVar(&o.chunkSize, n, 0, u) },
		},
		{
			name:  "prefix-share",
			usage: "enable prefix-cache sharing of common prompt prefixes",
			add:   func(fs *flag.FlagSet, n, u string) { fs.BoolVar(&o.prefixShare, n, false, u) },
		},
		{
			name:  "prefix-groups",
			usage: "synthetic shared-prefix groups (0 = independent prompts; defaults to 4 with -prefix-share)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.IntVar(&o.prefixGroups, n, 0, u) },
		},
		{
			name:  "prefix-frac",
			usage: "shared fraction of the mean prompt per prefix group",
			add:   func(fs *flag.FlagSet, n, u string) { fs.Float64Var(&o.prefixFrac, n, 0.5, u) },
		},
		{
			name:  "replicas",
			usage: "simulated fleet size behind the load balancer",
			add:   func(fs *flag.FlagSet, n, u string) { fs.IntVar(&o.replicas, n, 1, u) },
		},
		{
			name:  "lb-policy",
			usage: "fleet dispatch policy: round-robin|least-loaded|prefix-affinity",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.lbPolicy, n, "round-robin", u) },
			check: func() error {
				if _, err := serve.ParseLBPolicy(o.lbPolicy); err != nil {
					return fmt.Errorf("-lb-policy: %w", err)
				}
				return nil
			},
			rejects: []rejection{{args: []string{"-lb-policy", "random"}, want: "-lb-policy"}},
		},
		{
			name: "topology",
			usage: "role-aware fleet topology as comma-separated platform:replicas=role groups " +
				"(e.g. cgpu:2=prefill,tdx:4=decode splits prefill and decode across the TEE boundary " +
				"with a priced KV handoff between the stages); replaces -platform and -replicas",
			add: func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.topology, n, "", u) },
			check: func() error {
				if o.topology == "" {
					return nil
				}
				groups, err := cllm.ParseTopology(o.topology)
				if err != nil {
					return fmt.Errorf("-topology: %w", err)
				}
				// Role structure (all-unified vs prefill+decode) validates
				// backend-free, so a lopsided topology fails here rather
				// than after the first group's session opens.
				var topo serve.Topology
				for _, g := range groups {
					role, err := serve.ParseRole(g.Role)
					if err != nil {
						return fmt.Errorf("-topology: %w", err)
					}
					topo.Groups = append(topo.Groups, serve.RoleGroup{Role: role, Replicas: g.Replicas})
				}
				if _, err := serve.NewFleet(topo); err != nil {
					return fmt.Errorf("-topology: %w", err)
				}
				if o.replicas > 1 {
					return fmt.Errorf("-topology and -replicas are mutually exclusive (the topology fixes the fleet size)")
				}
				if o.autoscale {
					return fmt.Errorf("-topology is not supported with -autoscale (the scaler sizes unified replica classes; role-aware groups would need a scaler per stage)")
				}
				return nil
			},
			rejects: []rejection{
				{args: []string{"-topology", "cgpu:0=prefill"}, want: "-topology"},
				{args: []string{"-topology", "tdx=writer"}, want: "-topology"},
				{args: []string{"-topology", "cgpu:1=prefill"}, want: "-topology"},
				{args: []string{"-topology", "cgpu:1=prefill,tdx:2=decode", "-replicas", "2"}, want: "mutually exclusive"},
				{args: []string{"-topology", "tdx:2", "-autoscale"}, want: "-autoscale"},
			},
		},
		{
			name: "autoscale",
			usage: "simulate one elastic heterogeneous fleet at -rate (uses -classes; ignores -platform, -replicas, -lb-policy and -rate-mults, " +
				"and -in, -out, -prefix-groups and -prefix-frac, since the scenario's shape mixes own the request shapes; " +
				"-fail-plan indices name replica slots, numbered in class order, max slots per class)",
			add: func(fs *flag.FlagSet, n, u string) { fs.BoolVar(&o.autoscale, n, false, u) },
			check: func() error {
				if !o.autoscale {
					return nil
				}
				classes, err := cllm.ParseClasses(o.classes)
				if err != nil {
					return fmt.Errorf("-classes: %w", err)
				}
				o.autoClasses = classes
				if _, err := autoscale.ParseDispatch(o.dispatch); err != nil {
					return fmt.Errorf("-dispatch: %w", err)
				}
				if o.targetUtil < 0 || o.targetUtil > 1 {
					return fmt.Errorf("-target-util %g outside (0, 1]", o.targetUtil)
				}
				if o.demandAlpha < 0 || o.demandAlpha > 1 {
					return fmt.Errorf("-demand-alpha %g outside [0, 1] (0 or 1 = raw estimator)", o.demandAlpha)
				}
				return nil
			},
			rejects: []rejection{
				{args: []string{"-autoscale", "-classes", "tdx:1:3"}, want: "-classes"},
				{args: []string{"-autoscale", "-dispatch", "random"}, want: "-dispatch"},
				{args: []string{"-autoscale", "-target-util", "1.5"}, want: "-target-util"},
				{args: []string{"-autoscale", "-demand-alpha", "2"}, want: "-demand-alpha"},
			},
		},
		{
			name:  "classes",
			usage: "autoscale replica classes as platform:max[:min], comma-separated (e.g. tdx:4,cgpu:2)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.classes, n, "tdx:2", u) },
		},
		{
			name:  "dispatch",
			usage: "autoscale dispatch policy: uniform|cost-aware",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.dispatch, n, "cost-aware", u) },
		},
		{
			name:  "no-cold-start",
			usage: "zero TEE cold starts (counterfactual elasticity baseline)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.BoolVar(&o.noColdStart, n, false, u) },
		},
		{
			name:  "target-util",
			usage: "autoscaler target utilization (lower = more headroom)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.Float64Var(&o.targetUtil, n, 0.7, u) },
		},
		{
			name:  "interval",
			usage: "autoscaler control period (seconds)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.Float64Var(&o.interval, n, 15, u) },
		},
		{
			name:  "cost-bucket",
			usage: "step-costing quantization width in tokens (1 = exact; larger buckets trade bounded modeled-time error for memo hits in big sweeps)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.IntVar(&o.costBucket, n, 1, u) },
		},
		{
			name:  "quantile-mode",
			usage: "latency quantile computation: exact (per-request samples, sorted) or sketch (streaming DDSketch, no per-request state — flat memory at any request count)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.quantileMode, n, "exact", u) },
			check: func() error {
				if _, err := serve.ParseQuantileMode(o.quantileMode); err != nil {
					return fmt.Errorf("-quantile-mode: %w", err)
				}
				return nil
			},
			rejects: []rejection{{args: []string{"-quantile-mode", "approx"}, want: "-quantile-mode"}},
		},
		{
			name:  "sketch-alpha",
			usage: "sketch relative error bound in (0,1) (0 = 0.01 default; sketch mode only)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.Float64Var(&o.sketchAlpha, n, 0, u) },
			check: func() error {
				if o.sketchAlpha < 0 || o.sketchAlpha >= 1 {
					return fmt.Errorf("-sketch-alpha %g outside [0, 1) (0 = 0.01 default)", o.sketchAlpha)
				}
				return nil
			},
			rejects: []rejection{
				{args: []string{"-sketch-alpha", "-0.1"}, want: "-sketch-alpha"},
				{args: []string{"-sketch-alpha", "1"}, want: "-sketch-alpha"},
				{args: []string{"-sketch-alpha", "1.5"}, want: "-sketch-alpha"},
			},
		},
		{
			name:  "rate-mults",
			usage: "comma-separated multipliers of -rate swept per platform",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.rateMults, n, "0.25,0.5,1,1.5,2", u) },
			check: func() error {
				o.mults = o.mults[:0]
				for _, f := range strings.Split(o.rateMults, ",") {
					f = strings.TrimSpace(f)
					if f == "" {
						continue
					}
					m, err := strconv.ParseFloat(f, 64)
					if err != nil || m <= 0 {
						return fmt.Errorf("-rate-mults entry %q is not a positive number", f)
					}
					o.mults = append(o.mults, m)
				}
				if len(o.mults) == 0 {
					return fmt.Errorf("-rate-mults is empty")
				}
				return nil
			},
			rejects: []rejection{
				{args: []string{"-rate-mults", "0.5,-1"}, want: "-rate-mults"},
				{args: []string{"-rate-mults", "0.5,zero"}, want: "-rate-mults"},
				{args: []string{"-rate-mults", ","}, want: "-rate-mults"},
			},
		},
		{
			name:  "preempt",
			usage: "preemption policy: recompute|swap|auto (swap parks KV in a host swap pool at the backend's swap bandwidth; auto picks the cheaper per preemption)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.preempt, n, "recompute", u) },
			check: func() error {
				pol, err := serve.ParsePreemptPolicy(o.preempt)
				if err != nil {
					return fmt.Errorf("-preempt: %w", err)
				}
				o.preemptPol = pol
				return nil
			},
			rejects: []rejection{{args: []string{"-preempt", "drop"}, want: "-preempt"}},
		},
		{
			name:  "format",
			usage: "output format: table|csv|json",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.format, n, "table", u) },
			check: func() error {
				if o.format != "table" && o.format != "csv" && o.format != "json" {
					return fmt.Errorf("unknown -format %q (table|csv|json)", o.format)
				}
				return nil
			},
			rejects: []rejection{{args: []string{"-format", "xml"}, want: "-format"}},
		},
		{
			name:  "trace-out",
			usage: "write a Chrome trace-event JSON timeline (Perfetto-loadable) of the observed run to this file",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.traceOut, n, "", u) },
		},
		{
			name:  "metrics-out",
			usage: "write a Prometheus text-format snapshot of the observed run to this file",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.metricsOut, n, "", u) },
		},
		{
			name:  "timeseries-out",
			usage: "write the windowed CSV time series of the observed run to this file",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.timesOut, n, "", u) },
		},
		{
			name:  "obs-window",
			usage: "observation time-series window in simulated seconds (0 = 1s default)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.Float64Var(&o.obsWindow, n, 0, u) },
			check: func() error {
				if o.obsWindow < 0 {
					return fmt.Errorf("-obs-window %g is negative; pass a window in simulated seconds (0 = 1s default)", o.obsWindow)
				}
				return nil
			},
			rejects: []rejection{{args: []string{"-obs-window", "-1"}, want: "-obs-window"}},
		},
		{
			name:  "attrib",
			usage: "attribute the observed run's latency to phases (queue/prefill/decode/stall/swap/handoff) and price a clear-hardware counterfactual for the per-phase TEE tax; attributes the first platform's base-rate point, or the elastic run with -autoscale",
			add:   func(fs *flag.FlagSet, n, u string) { fs.BoolVar(&o.attrib, n, false, u) },
		},
		{
			name:  "attrib-out",
			usage: "write the attribution report JSON to this file (requires -attrib)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.attribOut, n, "", u) },
			check: func() error { return requiresAttrib(o, "-attrib-out", o.attribOut) },
			rejects: []rejection{
				{args: []string{"-attrib-out", "a.json"}, want: "-attrib-out"},
			},
		},
		{
			name:  "attrib-csv",
			usage: "write the phase-breakdown CSV to this file (requires -attrib)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.attribCSV, n, "", u) },
			check: func() error { return requiresAttrib(o, "-attrib-csv", o.attribCSV) },
			rejects: []rejection{
				{args: []string{"-attrib-csv", "a.csv"}, want: "-attrib-csv"},
			},
		},
		{
			name:  "compare",
			usage: "diff the attributed run against a baseline attribution JSON (from -attrib-out); prints movements beyond the sketch error bounds and exits 1 on regression (requires -attrib)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.compare, n, "", u) },
			check: func() error { return requiresAttrib(o, "-compare", o.compare) },
			rejects: []rejection{
				{args: []string{"-compare", "base.json"}, want: "-compare"},
			},
		},
		{
			name:  "compare-slack",
			usage: "extra tolerance added to the sketch error bounds when diffing with -compare",
			add:   func(fs *flag.FlagSet, n, u string) { fs.Float64Var(&o.compareSlack, n, 0.02, u) },
		},
		{
			name:  "demand-alpha",
			usage: "autoscaler EWMA demand-smoothing factor in (0,1]; 0 or 1 keeps the raw one-window estimator",
			add:   func(fs *flag.FlagSet, n, u string) { fs.Float64Var(&o.demandAlpha, n, 0, u) },
		},
		{
			name:  "fail-mtbf",
			usage: "inject Poisson replica failures with this mean time between failures in seconds (0 = no failures); a crashed replica pays the platform's full TEE cold start before serving again",
			add:   func(fs *flag.FlagSet, n, u string) { fs.Float64Var(&o.failMTBF, n, 0, u) },
			check: func() error {
				if o.failMTBF < 0 {
					return fmt.Errorf("-fail-mtbf %g is negative; pass a mean time between failures in seconds (0 = no failures)", o.failMTBF)
				}
				if o.failMTBF > 0 && o.failPlan != "" {
					return fmt.Errorf("-fail-mtbf and -fail-plan are mutually exclusive (Poisson vs scripted failures)")
				}
				return nil
			},
			rejects: []rejection{
				{args: []string{"-fail-mtbf", "-1"}, want: "-fail-mtbf"},
				{args: []string{"-fail-mtbf", "60", "-fail-plan", "30"}, want: "-fail-mtbf"},
			},
		},
		{
			name:  "fail-plan",
			usage: "inject scripted failures instead: comma-separated replica@seconds points (bare seconds = replica 0)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.failPlan, n, "", u) },
			check: func() error {
				if _, err := serve.ParseFailPlan(o.failPlan); err != nil {
					return fmt.Errorf("-fail-plan: %w", err)
				}
				return nil
			},
			rejects: []rejection{
				{args: []string{"-fail-plan", "a@30"}, want: "-fail-plan"},
				{args: []string{"-fail-plan", "0@-5"}, want: "-fail-plan"},
			},
		},
		{
			name:  "fail-policy",
			usage: "what a crash does to in-flight requests: requeue (restart on recovery) or lost (consume retry budget or drop)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.failPolicy, n, "requeue", u) },
			check: func() error {
				if _, err := serve.ParseFailurePolicy(o.failPolicy); err != nil {
					return fmt.Errorf("-fail-policy: %w", err)
				}
				return nil
			},
			rejects: []rejection{{args: []string{"-fail-policy", "explode"}, want: "-fail-policy"}},
		},
		{
			name:  "admission",
			usage: "queue admission policy: fifo|deadline|shed (deadline = EDF order with expired-request drops; shed also rejects requests that cannot start before their deadline)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.admission, n, "fifo", u) },
			check: func() error {
				if _, err := serve.ParseAdmissionPolicy(o.admission); err != nil {
					return fmt.Errorf("-admission: %w", err)
				}
				return nil
			},
			rejects: []rejection{{args: []string{"-admission", "lottery"}, want: "-admission"}},
		},
		{
			name:  "retry-max",
			usage: "per-request retry budget for shed and failure-lost requests (0 = no retries)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.IntVar(&o.retryMax, n, 0, u) },
			check: func() error {
				if o.retryMax < 0 {
					return fmt.Errorf("-retry-max %d is negative; pass a per-request retry budget (0 = no retries)", o.retryMax)
				}
				return nil
			},
			rejects: []rejection{{args: []string{"-retry-max", "-1"}, want: "-retry-max"}},
		},
		{
			name:  "retry-backoff",
			usage: "exponential retry backoff base in seconds with deterministic jitter (0 = 1s default; needs -retry-max)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.Float64Var(&o.retryBackoff, n, 0, u) },
			check: func() error {
				if o.retryBackoff < 0 {
					return fmt.Errorf("-retry-backoff %g is negative; pass a backoff base in seconds (0 = 1s default)", o.retryBackoff)
				}
				if o.retryBackoff > 0 && o.retryMax == 0 {
					return fmt.Errorf("-retry-backoff requires -retry-max > 0 (there is nothing to back off without a retry budget)")
				}
				return nil
			},
			rejects: []rejection{
				{args: []string{"-retry-max", "1", "-retry-backoff", "-0.5"}, want: "-retry-backoff"},
				{args: []string{"-retry-backoff", "2"}, want: "-retry-backoff"},
			},
		},
		{
			name:  "slo-ttft",
			usage: "TTFT SLO (seconds)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.Float64Var(&o.sloTTFT, n, 5, u) },
		},
		{
			name:  "slo-tpot",
			usage: "TPOT SLO (seconds/token)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.Float64Var(&o.sloTPOT, n, 0.5, u) },
		},
		{
			name:  "sockets",
			usage: "CPU sockets",
			add:   func(fs *flag.FlagSet, n, u string) { fs.IntVar(&o.sockets, n, 1, u) },
		},
		{
			name:  "seed",
			usage: "deterministic seed",
			add:   func(fs *flag.FlagSet, n, u string) { fs.Int64Var(&o.seed, n, 1, u) },
		},
	}
}

// requiresAttrib rejects an attribution-consuming flag set without -attrib.
func requiresAttrib(o *options, name, value string) error {
	if value != "" && !o.attrib {
		return fmt.Errorf("%s requires -attrib (it consumes the attributed run)", name)
	}
	return nil
}

// registerFlags installs every table entry on the FlagSet.
func registerFlags(fs *flag.FlagSet, table []flagSpec) {
	for _, s := range table {
		s.add(fs, s.name, s.usage)
	}
}

// checkFlags runs every table entry's validator in declaration order and
// returns the first failure, so misuse fails fast with a clear message
// before any simulation runs.
func checkFlags(table []flagSpec) error {
	for _, s := range table {
		if s.check == nil {
			continue
		}
		if err := s.check(); err != nil {
			return err
		}
	}
	return nil
}
