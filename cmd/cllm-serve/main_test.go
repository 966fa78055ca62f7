package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"
)

// parseAndCheck binds a fresh flag table, parses args, and runs the
// validators — the exact path main takes before any simulation runs.
func parseAndCheck(args []string) error {
	var o options
	table := flagTable(&o)
	fs := flag.NewFlagSet("cllm-serve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	registerFlags(fs, table)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return checkFlags(table)
}

func TestFlagTableNamesUnique(t *testing.T) {
	var o options
	seen := map[string]bool{}
	for _, s := range flagTable(&o) {
		if s.name == "" || s.add == nil {
			t.Fatalf("flag spec %+v missing name or registration", s.name)
		}
		if seen[s.name] {
			t.Fatalf("flag -%s declared twice in the table", s.name)
		}
		seen[s.name] = true
	}
}

func TestFlagDefaultsAccepted(t *testing.T) {
	if err := parseAndCheck(nil); err != nil {
		t.Fatalf("default flag values rejected: %v", err)
	}
}

func TestFlagAccepts(t *testing.T) {
	cases := [][]string{
		{"-format", "csv", "-obs-window", "0.5", "-sketch-alpha", "0.05"},
		{"-format", "json", "-attrib", "-attrib-out", "a.json", "-attrib-csv", "a.csv", "-compare", "base.json"},
		{"-attrib"},
		{"-autoscale"},
		{"-fail-mtbf", "120", "-fail-policy", "requeue", "-admission", "shed", "-retry-max", "3", "-retry-backoff", "0.5"},
		{"-fail-plan", "0@30,1@45.5", "-fail-policy", "lost"},
		{"-fail-plan", "30"},
		{"-admission", "deadline"},
		{"-retry-max", "2"},
		{"-autoscale", "-admission", "fifo"},
		{"-autoscale", "-fail-mtbf", "60"},
		{"-autoscale", "-fail-plan", "30"},
		{"-autoscale", "-retry-max", "2"},
		{"-admission", "shed", "-autoscale"},
		{"-attrib", "-autoscale"},
		{"-autoscale", "-classes", "tdx:2,cgpu:1:0", "-dispatch", "uniform", "-target-util", "0.5", "-demand-alpha", "0.3"},
		{"-topology", "cgpu:2=prefill,tdx:4=decode"},
		{"-topology", "tdx:4"},
		{"-topology", "tdx=decode,cgpu=prefill", "-lb-policy", "least-loaded"},
		{"-preempt", "auto", "-quantile-mode", "sketch", "-rate-mults", "1,2"},
	}
	for _, args := range cases {
		if err := parseAndCheck(args); err != nil {
			t.Errorf("flags %v rejected: %v", args, err)
		}
	}
}

// TestFlagRejections regenerates its cases from the flag table: every
// spec's rejection examples must fail parse-or-check with an error that
// names the offending flag.
func TestFlagRejections(t *testing.T) {
	var o options
	for _, spec := range flagTable(&o) {
		for i, rej := range spec.rejects {
			t.Run(fmt.Sprintf("%s/%d", spec.name, i), func(t *testing.T) {
				err := parseAndCheck(rej.args)
				if err == nil {
					t.Fatalf("args %v accepted; want rejection mentioning %q", rej.args, rej.want)
				}
				if rej.want != "" && !strings.Contains(err.Error(), rej.want) {
					t.Fatalf("args %v rejected with %q; want it to mention %q", rej.args, err, rej.want)
				}
			})
		}
	}
}

// TestFlagValidatorsHaveRejections keeps the table honest: a spec that
// installs a validator must ship at least one rejection example, so the
// rejection test exercises every validated flag.
func TestFlagValidatorsHaveRejections(t *testing.T) {
	var o options
	for _, spec := range flagTable(&o) {
		if spec.check != nil && len(spec.rejects) == 0 {
			t.Errorf("flag -%s has a validator but no rejection examples", spec.name)
		}
	}
}
