package main

import (
	"fmt"
	"math/rand"
	"sort"

	"cllm"
	"cllm/internal/dtype"
	"cllm/internal/hw"
	"cllm/internal/model"
	"cllm/internal/obs"
	"cllm/internal/perf"
	"cllm/internal/serve"
	"cllm/internal/tee"
	"cllm/internal/trace"
	"cllm/internal/workload"
)

// paperSeed is the seed every paper experiment runs with: the one
// cllm-bench uses by default and the one the harness shape checks are
// calibrated against (see README.md, "Seeds").
const paperSeed = 1

// spec is one benchmark workload. A serving workload runs one fixed-size
// simulation per repetition through cllm.Session.Serve; paper-sweep runs
// every registered experiment through cllm.RunExperiment.
type spec struct {
	name string
	// platform opens the session; requests is the size of one repetition.
	platform string
	requests int
	// serve is the public configuration of one repetition (nil for
	// paper-sweep). Requests is filled in by config.
	serve *cllm.ServeConfig
}

var specs = []spec{
	{
		name: "chat-steady", platform: "tdx", requests: 200_000,
		serve: &cllm.ServeConfig{RatePerSec: 3, InputLen: 128, OutputLen: 32, QuantileMode: "sketch"},
	},
	{
		name: "rag-fleet", platform: "tdx", requests: 1_500,
		serve: &cllm.ServeConfig{
			RatePerSec: 2, Scenario: "poisson+rag", PrefixSharing: true,
			Replicas: 4, LBPolicy: "prefix-affinity", QuantileMode: "sketch",
		},
	},
	{
		name: "disagg-attrib", platform: "tdx", requests: 100_000,
		serve: &cllm.ServeConfig{
			RatePerSec: 6, InputLen: 1024, OutputLen: 32, Topology: "cgpu:1=prefill,tdx:3=decode",
			Attribution: true, QuantileMode: "sketch",
		},
	},
	{name: "paper-sweep"},
}

func lookupSpec(name string) (spec, error) {
	var names []string
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// config returns the public configuration of one repetition of n requests.
func (s spec) config(n int) cllm.ServeConfig {
	cfg := *s.serve
	cfg.Requests = n
	return cfg
}

// experimentOrder is the order paper-sweep runs the first k registered
// experiments (by ID) in: a seeded permutation, so the seed varies what
// precedes each experiment (warm step-costing tables, heap state) while
// every experiment keeps the paper's own seed.
func experimentOrder(seed int64, k int) []string {
	var ids []string
	for _, e := range cllm.Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	ids = ids[:min(k, len(ids))]
	rand.New(rand.NewSource(seed)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

// internalRun is one repetition of a serving workload driven through the
// internal serve API with the same configuration cllm.Session.Serve builds
// for it. It exists so the benchmark can attach its own observer and read
// the report fields the public report leaves out (TotalTokens, KV and
// swap blocks at the end). crossCheck ties it to the public path.
type internalRun struct {
	rep     *serve.Report
	fleet   *serve.FleetReport // nil for single-replica runs
	costers []*perf.StepCoster // every coster the run priced rounds with
	attrib  *obs.Attribution
	cfg     serve.Config
}

func tdxBackend(seed int64) (serve.Backend, error) {
	cpu, err := hw.Lookup("EMR1")
	if err != nil {
		return serve.Backend{}, err
	}
	return serve.Backend{CPU: perf.CPURun{CPU: cpu, Platform: tee.TDX(), AMX: true, Seed: seed}}, nil
}

func cgpuBackend(seed int64) serve.Backend {
	return serve.Backend{IsGPU: true, GPU: perf.GPURun{GPU: hw.H100NVL(), Platform: tee.CGPU(), Seed: seed}}
}

// serveConfig mirrors cllm.Session.Serve's translation of the workload's
// public configuration.
func (s spec) serveConfig(n int, seed int64) (serve.Config, error) {
	pc := s.config(n)
	m, err := model.Lookup("llama2-7b")
	if err != nil {
		return serve.Config{}, err
	}
	cfg := serve.Config{
		Workload:      trace.Workload{Model: m, Kind: dtype.BF16, InputLen: pc.InputLen, OutputLen: pc.OutputLen},
		Rate:          pc.RatePerSec,
		Requests:      n,
		Seed:          seed,
		PrefixSharing: pc.PrefixSharing,
		QuantileMode:  serve.QuantileSketch,
	}
	if pc.Scenario != "" {
		sc, err := workload.ParseScenario(pc.Scenario, pc.RatePerSec)
		if err != nil {
			return serve.Config{}, err
		}
		cfg.Scenario = &sc
	}
	return cfg, nil
}

// runInternal runs one repetition of n requests with observer o (nil for
// none) attached next to the workload's own attribution engine.
func (s spec) runInternal(n int, seed int64, o serve.Observer) (*internalRun, error) {
	cfg, err := s.serveConfig(n, seed)
	if err != nil {
		return nil, err
	}
	tdx, err := tdxBackend(seed)
	if err != nil {
		return nil, err
	}
	out := &internalRun{}
	if s.serve.Attribution {
		if out.attrib, err = obs.NewAttributionWindow(0, true, 0, 512); err != nil {
			return nil, err
		}
	}
	cfg.Observer = obs.Multi(o, out.attrib)
	newCoster := func(be *serve.Backend) error {
		c, err := serve.NewStepCoster(*be, cfg)
		if err != nil {
			return err
		}
		be.Coster = c
		out.costers = append(out.costers, c)
		return nil
	}
	switch s.name {
	case "chat-steady":
		if err := newCoster(&tdx); err != nil {
			return nil, err
		}
		out.rep, err = serve.Run(tdx, cfg)
	case "rag-fleet":
		if err := newCoster(&tdx); err != nil {
			return nil, err
		}
		out.fleet, err = serve.RunFleet(tdx, cfg, serve.FleetConfig{Replicas: 4, Policy: serve.PrefixAffinity})
	case "disagg-attrib":
		// Session.Serve opens each topology group as its own session and
		// gives every group a fresh coster (Fleet.Run builds them); building
		// them here instead only makes them visible to the trace.
		gpu := cgpuBackend(seed)
		if err := newCoster(&gpu); err != nil {
			return nil, err
		}
		tdx.CPU.Sockets = 1
		if err := newCoster(&tdx); err != nil {
			return nil, err
		}
		var f *serve.Fleet
		f, err = serve.NewFleet(serve.Topology{Groups: []serve.RoleGroup{
			{Role: serve.RolePrefill, Backend: gpu, Replicas: 1},
			{Role: serve.RoleDecode, Backend: tdx, Replicas: 3},
		}})
		if err == nil {
			out.fleet, err = f.Run(cfg)
		}
	default:
		return nil, fmt.Errorf("workload %s has no serving run", s.name)
	}
	if err != nil {
		return nil, err
	}
	if out.fleet != nil {
		out.rep = out.fleet.Aggregate
	}
	out.cfg = cfg
	return out, nil
}
