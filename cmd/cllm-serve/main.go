// cllm-serve simulates production serving on a confidential platform:
// Poisson arrivals — or a workload scenario (bursty MMPP, diurnal, ramp ×
// chat/RAG/agentic mixes) — into a continuous-batching scheduler with a
// paged KV-cache, optionally with chunked prefill, prefix-cache sharing, a
// load-balanced multi-replica fleet, or an elastic autoscaled
// heterogeneous fleet — reported as throughput–latency curves with
// SLO-aware cost.
//
// Usage:
//
//	cllm-serve -platform tdx -rate 8
//	cllm-serve -platform baremetal,tdx,sgx -rate 8 -model llama2-7b
//	cllm-serve -platform cgpu -rate 24 -slo-ttft 2 -slo-tpot 0.2
//	cllm-serve -platform sgx -rate 2 -prefix-share -prefix-groups 4 -chunk-size 512
//	cllm-serve -replicas 4 -lb-policy prefix-affinity -prefix-share -chunk-size 512 -format json
//	cllm-serve -platform tdx -scenario diurnal+rag -rate 6
//	cllm-serve -topology cgpu:1=prefill,tdx:3=decode -rate 12 -in 2048 -out 128
//	cllm-serve -scenario diurnal -autoscale -classes tdx:2,cgpu:2
//	cllm-serve -scenario bursty -autoscale -classes tdx:4 -no-cold-start
//
// For each platform the offered rate is swept around -rate, tracing how
// tail latency and cost-per-million-tokens move as load approaches and
// passes saturation. With -autoscale, one elastic run is simulated
// instead: replica classes from -classes scale reactively with the
// scenario, paying per-TEE cold starts (enclave/TD build + attestation).
// -format csv|json emits the same rows machine-readably for plotting
// (schema in docs/serving-model.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"cllm"
	"cllm/internal/harness"
	"cllm/internal/obs"
	"cllm/internal/serve"
)

func main() {
	var o options
	specs := flagTable(&o)
	registerFlags(flag.CommandLine, specs)
	flag.Parse()

	exitOn(checkFlags(specs))
	if o.prefixShare && o.prefixGroups <= 0 {
		o.prefixGroups = 4 // sharing without declared groups would never hit
	}

	if o.autoscale {
		// The sweep default of 48 arrivals spans seconds; an elastic run
		// needs enough stream for the control loop to act, so unless the
		// user set -requests it simulates 256 arrivals.
		requestsSet := false
		flag.Visit(func(f *flag.Flag) { requestsSet = requestsSet || f.Name == "requests" })
		if !requestsSet {
			o.requests = 256
		}
		runAutoscale(&o)
		return
	}

	load := fmt.Sprintf("in/out %d/%d tokens", o.inLen, o.outLen)
	if o.scenario != "" {
		load = "scenario " + o.scenario
	}
	// The default recompute policy keeps the historical table schema (and
	// byte-identical output); swap/auto runs add the policy to the title and
	// a swaps column (out/in transfer counts). Decide off the parsed policy
	// so spelling variants of recompute keep the historical schema too.
	swapMode := o.preemptPol != serve.PreemptRecompute
	// A role-aware topology replaces the replicas+policy fleet description
	// (and the -platform list: the groups name their own platforms).
	fleetDesc := fmt.Sprintf("%d replica(s) %s", o.replicas, o.lbPolicy)
	platList := strings.Split(o.platforms, ",")
	if o.topology != "" {
		fleetDesc = "topology " + o.topology
		groups, err := cllm.ParseTopology(o.topology)
		exitOn(err) // unreachable: checkFlags parsed it already
		platList = []string{groups[0].Platform}
	}
	title := fmt.Sprintf("%s (%s), %d requests per point, %s, chunk %d, share %v, %s, SLO TTFT %.2gs TPOT %.2gs",
		o.modelName, o.dt, o.requests, load, o.chunkSize, o.prefixShare, fleetDesc, o.sloTTFT, o.sloTPOT)
	header := []string{"platform", "rate(req/s)", "tput(tok/s)", "goodput", "SLO%", "TTFT p50(s)", "TTFT p99(s)", "TPOT(s)", "TPOT p99(s)", "p99 lat(s)", "prefix-hit(tok)", "preempt", "replicas", "$/Mtok@SLO"}
	if swapMode {
		title += ", preempt " + o.preemptPol.String()
		header = append(header, "swaps(out/in)")
	}
	// The machine formats carry the full report: the text table keeps its
	// historical (byte-identical) schema, csv|json append every remaining
	// counter so plots never need a second run.
	machine := o.format != "table"
	if machine {
		header = append(header, "completed", "dropped", "unfinished",
			"kv-blocks", "kv-peak", "prefix-miss(tok)", "evicted-blocks", "swap-out", "swap-in",
			"shed", "dropped-kv", "dropped-shed", "dropped-deadline", "dropped-lost",
			"retries", "crashes", "downtime(s)",
			"handoffs", "handoffs-in", "handoff-fallbacks", "handoff-bytes")
	}
	// The export artifacts come from one observed run: the first platform's
	// base-rate (×1) sweep point. Attribution follows the same rule.
	wantObserve := o.observe()
	wantAttrib := o.attrib
	var attribRep *obs.AttribReport
	table := &harness.Result{
		ID:     "serve",
		Title:  title,
		Header: header,
	}
	for _, plat := range platList {
		plat = strings.TrimSpace(plat)
		if plat == "" {
			continue
		}
		sess, err := cllm.Open(cllm.Config{Platform: plat, System: o.system, Seed: o.seed})
		exitOn(err)
		for _, m := range o.mults {
			cfg := o.serveConfig()
			cfg.RatePerSec = o.rate * m
			cfg.Replicas, cfg.LBPolicy, cfg.Topology = o.replicas, o.lbPolicy, o.topology
			cfg.Observe = wantObserve && m == 1
			cfg.Attribution = wantAttrib && m == 1
			rep, err := sess.Serve(cfg)
			if err != nil {
				exitOn(fmt.Errorf("%s at rate %.2f: %w", plat, o.rate*m, err))
			}
			nRepl, cost := "-", "-"
			if rep.SLOFeasible {
				nRepl = fmt.Sprintf("%d", rep.ReplicasAtSLO)
				cost = fmt.Sprintf("%.2f", rep.USDPerMTokAtSLO)
			}
			row := []string{
				rep.Platform,
				fmt.Sprintf("%.2f", rep.OfferedRate),
				fmt.Sprintf("%.1f", rep.TokensPerSec),
				fmt.Sprintf("%.1f", rep.GoodputTokensPerSec),
				fmt.Sprintf("%.0f%%", rep.SLOAttainment*100),
				fmt.Sprintf("%.3f", rep.TTFTp50),
				fmt.Sprintf("%.3f", rep.TTFTp99),
				fmt.Sprintf("%.3f", rep.TPOTMean),
				fmt.Sprintf("%.3f", rep.TPOTp99),
				fmt.Sprintf("%.2f", rep.LatencyP99),
				fmt.Sprintf("%d", rep.PrefixCacheHitTokens),
				fmt.Sprintf("%d", rep.Preemptions),
				nRepl,
				cost,
			}
			if swapMode {
				row = append(row, fmt.Sprintf("%d/%d", rep.SwapOuts, rep.SwapIns))
			}
			if machine {
				row = append(row,
					fmt.Sprintf("%d", rep.Completed),
					fmt.Sprintf("%d", rep.Dropped),
					fmt.Sprintf("%d", rep.Unfinished),
					fmt.Sprintf("%d", rep.KVBlocksTotal),
					fmt.Sprintf("%d", rep.PeakKVBlocksInUse),
					fmt.Sprintf("%d", rep.PrefixCacheMissTokens),
					fmt.Sprintf("%d", rep.EvictedKVBlocks),
					fmt.Sprintf("%d", rep.SwapOuts),
					fmt.Sprintf("%d", rep.SwapIns),
					fmt.Sprintf("%d", rep.Sheds),
					fmt.Sprintf("%d", rep.DroppedByReason[serve.DropKVExhausted]),
					fmt.Sprintf("%d", rep.DroppedByReason[serve.DropAdmissionShed]),
					fmt.Sprintf("%d", rep.DroppedByReason[serve.DropDeadlineExpired]),
					fmt.Sprintf("%d", rep.DroppedByReason[serve.DropFailureLost]),
					fmt.Sprintf("%d", rep.Retries),
					fmt.Sprintf("%d", rep.Crashes),
					fmt.Sprintf("%.3f", rep.DowntimeSec),
					fmt.Sprintf("%d", rep.Handoffs),
					fmt.Sprintf("%d", rep.HandoffsIngested),
					fmt.Sprintf("%d", rep.HandoffFallbacks),
					fmt.Sprintf("%.4g", rep.HandoffBytes))
			}
			table.Rows = append(table.Rows, row)
			if cfg.Observe {
				writeArtifacts(rep.Observation, o.traceOut, o.metricsOut, o.timesOut)
				wantObserve = false
			}
			if cfg.Attribution {
				attribRep = rep.Attrib
				writeAttrib(attribRep, o.attribOut, o.attribCSV)
				wantAttrib = false
			}
		}
	}

	emit(table, o.format)
	compareBaseline(&o, attribRep)
}

// serveConfig is the serving configuration both modes share: everything
// but the rate, the fleet shape and the observation switches.
func (o *options) serveConfig() cllm.ServeConfig {
	return cllm.ServeConfig{
		ObserveWindowSec: o.obsWindow,
		Model:            o.modelName, DType: o.dt,
		InputLen: o.inLen, OutputLen: o.outLen,
		Scenario: o.scenario, Requests: o.requests,
		MaxBatch: o.batch, Sockets: o.sockets,
		ChunkTokens:   o.chunkSize,
		PrefixSharing: o.prefixShare,
		PrefixGroups:  o.prefixGroups,
		PrefixFrac:    o.prefixFrac,
		CostBucket:    o.costBucket,
		PreemptPolicy: o.preemptPol.String(),
		QuantileMode:  o.quantileMode,
		SketchAlpha:   o.sketchAlpha,
		Faults: cllm.FaultConfig{
			MTBFSec:         o.failMTBF,
			Plan:            o.failPlan,
			Policy:          o.failPolicy,
			Admission:       o.admission,
			RetryMax:        o.retryMax,
			RetryBackoffSec: o.retryBackoff,
		},
		TTFTSLOSec: o.sloTTFT, TPOTSLOSec: o.sloTPOT,
	}
}

// observe reports whether any observation artifact was requested.
func (o *options) observe() bool {
	return o.traceOut != "" || o.metricsOut != "" || o.timesOut != ""
}

// writeAttrib writes the attribution report JSON and/or phase CSV.
func writeAttrib(rep *obs.AttribReport, jsonPath, csvPath string) {
	if rep == nil {
		return
	}
	if jsonPath != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonPath, append(raw, '\n'), 0o644)
		}
		exitOn(err)
	}
	if csvPath != "" {
		exitOn(os.WriteFile(csvPath, rep.PhaseCSV(), 0o644))
	}
}

// compareBaseline diffs the attributed run against the -compare baseline
// attribution JSON (a no-op without -compare) and prints the movements
// that exceed the combined sketch error bounds plus slack. It exits 1
// when any movement is a regression.
func compareBaseline(o *options, cur *obs.AttribReport) {
	baselinePath, slack := o.compare, o.compareSlack
	if baselinePath == "" {
		return
	}
	if cur == nil {
		fmt.Fprintln(os.Stderr, "cllm-serve: -compare got no attributed run")
		os.Exit(1)
	}
	raw, err := os.ReadFile(baselinePath)
	exitOn(err)
	var base obs.AttribReport
	if err := json.Unmarshal(raw, &base); err != nil {
		exitOn(fmt.Errorf("baseline %s: %w", baselinePath, err))
	}
	deltas := obs.Diff(&base, cur, slack)
	table := &harness.Result{
		ID: "attrib-diff",
		Title: fmt.Sprintf("attribution diff vs %s (baseline %s, current %s; noise floor α %g+%g, slack %g)",
			baselinePath, base.Platform, cur.Platform, base.Alpha, cur.Alpha, slack),
		Header: []string{"metric", "phase", "base", "current", "delta", "threshold", "regression"},
	}
	regressed := false
	for _, d := range deltas {
		unit := ""
		if d.Relative {
			unit = "%"
		}
		delta := d.Delta
		if d.Relative {
			delta *= 100
		}
		if d.Regression {
			regressed = true
		}
		table.Rows = append(table.Rows, []string{
			d.Metric, d.Phase,
			fmt.Sprintf("%.6g", d.Base), fmt.Sprintf("%.6g", d.Cur),
			fmt.Sprintf("%+.4g%s", delta, unit), fmt.Sprintf("%.4g", d.Threshold),
			fmt.Sprintf("%v", d.Regression),
		})
	}
	if len(deltas) == 0 {
		table.Notes = append(table.Notes, "no movement beyond the noise floor")
	}
	emit(table, o.format)
	if regressed {
		os.Exit(1)
	}
}

// writeArtifacts writes the observed run's rendered artifacts to the
// requested paths (empty path = artifact not requested).
func writeArtifacts(o *cllm.ServeObservation, traceOut, metricsOut, timeseriesOut string) {
	if o == nil {
		return
	}
	for _, art := range []struct {
		path string
		data []byte
	}{
		{traceOut, o.TraceJSON},
		{metricsOut, o.PrometheusText},
		{timeseriesOut, o.TimeseriesCSV},
	} {
		if art.path == "" {
			continue
		}
		exitOn(os.WriteFile(art.path, art.data, 0o644))
	}
}

// exitOn reports a fatal error and exits 1; a nil error is a no-op.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "cllm-serve: %v\n", err)
		os.Exit(1)
	}
}

// emit prints a result table in the chosen format.
func emit(table *harness.Result, format string) {
	switch format {
	case "csv":
		fmt.Print(table.CSV())
	case "json":
		out, err := table.JSON()
		exitOn(err)
		fmt.Print(out)
	default:
		fmt.Print(table.Render())
	}
}

// runAutoscale simulates one elastic heterogeneous fleet and prints its
// per-class usage plus the fleet summary row.
func runAutoscale(o *options) {
	// The classes were parsed by checkFlags; the session that serves them
	// is the first class's platform (each class opens as its sub-session).
	sess, err := cllm.Open(cllm.Config{Platform: o.autoClasses[0].Platform, System: o.system, Seed: o.seed})
	exitOn(err)
	cfg := o.serveConfig()
	if cfg.Scenario == "" {
		cfg.Scenario = "bursty"
	}
	cfg.RatePerSec = o.rate
	cfg.Observe, cfg.Attribution = o.observe(), o.attrib
	cfg.Autoscale = &cllm.AutoscaleOptions{
		Classes: o.autoClasses, Dispatch: o.dispatch,
		IntervalSec: o.interval, TargetUtil: o.targetUtil,
		DemandAlpha: o.demandAlpha, NoColdStart: o.noColdStart,
	}
	rep, err := sess.Serve(cfg)
	exitOn(err)
	writeArtifacts(rep.Observation, o.traceOut, o.metricsOut, o.timesOut)
	writeAttrib(rep.Attrib, o.attribOut, o.attribCSV)
	el := rep.Autoscale

	offered := rep.Completed + rep.Dropped + rep.Unfinished
	table := &harness.Result{
		ID: "autoscale",
		Title: fmt.Sprintf("%s (%s), scenario %s at %.2g req/s mean, %d requests, %s dispatch, target util %.2g, SLO TTFT %.2gs TPOT %.2gs",
			o.modelName, o.dt, cfg.Scenario, o.rate, offered, el.Dispatch, o.targetUtil, o.sloTTFT, o.sloTPOT),
		Header: []string{"class", "$/h", "coldstart(s)", "cap(req/s)", "dispatched", "peak", "coldstarts", "replica-hrs", "cost($)", "SLO%", "goodput", "$/Mtok"},
	}
	// The machine formats carry the fleet-level request partition, latency
	// and preemption/swap counters as columns (the text table keeps them in
	// the note, preserving its historical schema).
	machine := o.format != "table"
	if machine {
		table.Header = append(table.Header, "completed", "dropped", "unfinished",
			"preempt", "swap-out", "swap-in", "tokens", "TTFT p50(s)", "TTFT p99(s)")
	}
	for _, c := range el.Classes {
		row := []string{
			c.Name,
			fmt.Sprintf("%.2f", c.HourlyUSD),
			fmt.Sprintf("%.1f", c.ColdStartSec),
			fmt.Sprintf("%.2f", c.CapacityReqPerSec),
			fmt.Sprintf("%d", c.Dispatched),
			fmt.Sprintf("%d", c.PeakActive),
			fmt.Sprintf("%d", c.ColdStarts),
			fmt.Sprintf("%.4f", c.ReplicaHours),
			fmt.Sprintf("%.4f", c.CostUSD),
			"-", "-", "-",
		}
		if machine {
			row = append(row, "-", "-", "-", "-", "-", "-", "-", "-", "-")
		}
		table.Rows = append(table.Rows, row)
	}
	fleetRow := []string{
		"fleet", "-", "-", "-",
		fmt.Sprintf("%d", offered),
		"-",
		fmt.Sprintf("%d", el.ColdStarts),
		fmt.Sprintf("%.4f", el.ReplicaHours),
		fmt.Sprintf("%.4f", el.CostUSD),
		fmt.Sprintf("%.0f%%", rep.SLOAttainment*100),
		fmt.Sprintf("%.1f", rep.GoodputTokensPerSec),
		fmt.Sprintf("%.2f", el.USDPerMTok),
	}
	if machine {
		fleetRow = append(fleetRow,
			fmt.Sprintf("%d", rep.Completed),
			fmt.Sprintf("%d", rep.Dropped),
			fmt.Sprintf("%d", rep.Unfinished),
			fmt.Sprintf("%d", rep.Preemptions),
			fmt.Sprintf("%d", rep.SwapOuts),
			fmt.Sprintf("%d", rep.SwapIns),
			fmt.Sprintf("%d", rep.TotalTokens),
			fmt.Sprintf("%.3f", rep.TTFTp50),
			fmt.Sprintf("%.3f", rep.TTFTp99))
	}
	table.Rows = append(table.Rows, fleetRow)
	table.Notes = append(table.Notes,
		fmt.Sprintf("completed %d, dropped %d, unfinished %d; TTFT p50 %.3fs p99 %.3fs; %d control windows",
			rep.Completed, rep.Dropped, rep.Unfinished, rep.TTFTp50, rep.TTFTp99, len(el.Windows)))
	emit(table, o.format)
	compareBaseline(o, rep.Attrib)
}
