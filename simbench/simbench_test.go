package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"cllm"
	"cllm/internal/obs"
	"cllm/internal/serve"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// test run spawns its fresh-process RSS probes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--rss-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// tinyRun runs the benchmark at a tiny size and returns its output lines
// and parsed result.
func tinyRun(t *testing.T, workload, seed, trace string) ([]string, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--seed", seed, "--seconds", "0.01", "--scale", "0.001", "--trace", trace}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s trace %s: exit %d: %s", workload, trace, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return lines, res
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, sp := range specs {
		for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
			_, res := tinyRun(t, sp.name, "1", trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, %d of %d failed", sp.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", sp.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				got, ok := res.Metrics[d.name]
				if !ok || got.Unit != d.unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", sp.name, trace, d.name, got, d.unit)
				}
				if trace == "0" && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %g, want > 0", sp.name, d.name, got.Value)
				}
			}
			if trace == "1" {
				if u := res.Metrics["unattributed.share"].Value; u < 0 || u > 1 {
					t.Errorf("%s: unattributed share %g outside [0, 1]", sp.name, u)
				}
			}
		}
	}
}

func TestDigestRepeatsPerSeed(t *testing.T) {
	digestOf := func(workload, seed string) string {
		lines, _ := tinyRun(t, workload, seed, "0")
		for _, l := range lines {
			if strings.HasPrefix(l, "digest ") {
				return l[strings.Index(l, "sha="):]
			}
		}
		t.Fatalf("%s: no digest line", workload)
		return ""
	}
	for _, sp := range specs {
		if a, b := digestOf(sp.name, "3"), digestOf(sp.name, "3"); a != b {
			t.Errorf("%s: seed 3 digests differ across runs: %s vs %s", sp.name, a, b)
		}
	}
	if a, b := digestOf("chat-steady", "3"), digestOf("chat-steady", "4"); a == b {
		t.Errorf("chat-steady: seeds 3 and 4 share digest %s; the seed does not reach the inputs", a)
	}
	// paper-sweep runs every experiment at the paper's seed; its seed only
	// reorders them, which must not change any result.
	if a, b := digestOf("paper-sweep", "3"), digestOf("paper-sweep", "4"); a != b {
		t.Errorf("paper-sweep: experiment order changed the results: %s vs %s", a, b)
	}
}

func TestBrokenInvariantCountsAsFailure(t *testing.T) {
	good := &cllm.ServeReport{Completed: 8, Dropped: 1, Unfinished: 1, Handoffs: 9, HandoffsIngested: 9}
	if err := checkPublic(good, 10, true); err != nil {
		t.Fatalf("consistent report rejected: %v", err)
	}
	broken := []struct {
		name string
		err  error
	}{
		{"lost request", checkPublic(&cllm.ServeReport{Completed: 8, Dropped: 1}, 10, false)},
		{"attribution violation", checkPublic(&cllm.ServeReport{Completed: 10, Attrib: &obs.AttribReport{Violations: []string{"phases do not sum"}}}, 10, false)},
		{"lost handoff", checkPublic(&cllm.ServeReport{Completed: 10, Handoffs: 10, HandoffsIngested: 9}, 10, true)},
		{"fallbacks beyond ingests", checkHandoffs(5, 5, 6, 0)},
		{"leaked KV block", checkInternal(&serve.Report{Completed: 3, KVBlocksInUseAtEnd: 1})},
		{"leaked swap block", checkInternal(&serve.Report{Completed: 3, SwapBlocksAtEnd: 2})},
		{"shape check", checkSweep(&sweepResult{Reports: []*cllm.ExperimentReport{{ID: "fig4", FailedChecks: []string{"x"}}}})},
		{"public/internal drift", crossCheck(&cllm.ServeReport{Completed: 3}, &serve.Report{Completed: 4})},
	}
	for _, c := range broken {
		b := newBench(specs[0], 1, 1, &bytes.Buffer{})
		b.record("ok", nil)
		b.record(c.name, c.err)
		res := b.result(endToEnd, map[string]float64{"setup_s": 1})
		if c.err == nil || res.Correct || res.Failed != 1 || res.Attempted != 2 {
			t.Errorf("%s: err %v, result correct %v failed %d of %d; want a counted failure",
				c.name, c.err, res.Correct, res.Failed, res.Attempted)
		}
	}
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if i < len(specs) && w.Name != specs[i].name {
			t.Errorf("workload %d: file %s, code %s", i, w.Name, specs[i].name)
		}
	}
	same := func(kind string, file []struct{ Name, Unit string }, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: file lists %d metrics, code %d", kind, len(file), len(code))
			return
		}
		for i := range file {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s %d: file %s/%s, code %s/%s", kind, i, file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}
