package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sort"

	"cllm"
	"cllm/internal/serve"
)

// digest hashes every exported field of v: integers and booleans by
// value, floats by their IEEE-754 bits, strings and byte slices by
// content, maps in key order. Two runs with equal digests produced
// byte-identical simulated statistics.
func digest(v any) string {
	h := sha256.New()
	digestValue(h, reflect.ValueOf(v))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func digestValue(h hash.Hash, v reflect.Value) {
	var buf [8]byte
	putU := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Invalid:
		h.Write([]byte{0})
	case reflect.Bool:
		if v.Bool() {
			putU(1)
		} else {
			putU(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		putU(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		putU(v.Uint())
	case reflect.Float32, reflect.Float64:
		putU(math.Float64bits(v.Float()))
	case reflect.String:
		putU(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			h.Write([]byte{0})
			return
		}
		h.Write([]byte{1})
		digestValue(h, v.Elem())
	case reflect.Slice, reflect.Array:
		putU(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			digestValue(h, v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		putU(uint64(len(keys)))
		for _, k := range keys {
			digestValue(h, k)
			digestValue(h, v.MapIndex(k))
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if t.Field(i).IsExported() {
				h.Write([]byte(t.Field(i).Name))
				digestValue(h, v.Field(i))
			}
		}
	default:
		panic(fmt.Sprintf("digest: unsupported kind %v", v.Kind()))
	}
}

// checkPublic applies the invariants the public report exposes to one
// repetition of n offered requests.
func checkPublic(r *cllm.ServeReport, n int, disagg bool) error {
	if got := r.Completed + r.Dropped + r.Unfinished; got != n {
		return fmt.Errorf("completed %d + dropped %d + unfinished %d = %d, offered %d",
			r.Completed, r.Dropped, r.Unfinished, got, n)
	}
	if r.Attrib != nil && len(r.Attrib.Violations) > 0 {
		return fmt.Errorf("attribution violations: %v", r.Attrib.Violations)
	}
	if disagg {
		if err := checkHandoffs(r.Handoffs, r.HandoffsIngested, r.HandoffFallbacks, r.Unfinished); err != nil {
			return err
		}
	}
	return nil
}

// checkHandoffs: every launched KV handoff lands on a decode replica once
// nothing is left in flight, and a recompute fallback is one way of
// landing (the decode side counts it among its ingests).
func checkHandoffs(launched, ingested, fallbacks, unfinished int) error {
	if fallbacks > ingested {
		return fmt.Errorf("handoff fallbacks %d exceed ingests %d", fallbacks, ingested)
	}
	if ingested > launched || (unfinished == 0 && ingested != launched) {
		return fmt.Errorf("handoffs ingested %d (of which %d fell back) vs launched %d with %d unfinished",
			ingested, fallbacks, launched, unfinished)
	}
	return nil
}

// checkInternal applies the invariants only the internal report exposes.
func checkInternal(r *serve.Report) error {
	if r.Unfinished == 0 && (r.KVBlocksInUseAtEnd != 0 || r.SwapBlocksAtEnd != 0) {
		return fmt.Errorf("nothing unfinished but %d KV and %d swap blocks still in use", r.KVBlocksInUseAtEnd, r.SwapBlocksAtEnd)
	}
	tokens := r.CompletedOutputTokens
	if r.Unfinished == 0 && r.Dropped == 0 && r.Retries == 0 && r.Preemptions == 0 && tokens != r.TotalTokens {
		return fmt.Errorf("completed requests produced %d output tokens, run total %d", tokens, r.TotalTokens)
	}
	return nil
}

// crossCheck asserts that the internal repetition simulated exactly what
// the public one did, so statistics read from it describe the timed runs.
func crossCheck(pub *cllm.ServeReport, in *serve.Report) error {
	type pair struct {
		name     string
		pub, int any
	}
	for _, p := range []pair{
		{"Completed", pub.Completed, in.Completed},
		{"Dropped", pub.Dropped, in.Dropped},
		{"Unfinished", pub.Unfinished, in.Unfinished},
		{"Preemptions", pub.Preemptions, in.Preemptions},
		{"PeakKVBlocksInUse", pub.PeakKVBlocksInUse, in.PeakKVBlocksInUse},
		{"PrefixCacheHitTokens", pub.PrefixCacheHitTokens, in.PrefixCacheHitTokens},
		{"Handoffs", pub.Handoffs, in.HandoffsOut},
		{"TokensPerSec", math.Float64bits(pub.TokensPerSec), math.Float64bits(in.TokensPerSec)},
		{"TTFTp99", math.Float64bits(pub.TTFTp99), math.Float64bits(in.TTFT.P99)},
		{"LatencyP50", math.Float64bits(pub.LatencyP50), math.Float64bits(in.Latency.P50)},
	} {
		if p.pub != p.int {
			return fmt.Errorf("public and internal runs disagree on %s: %v vs %v", p.name, p.pub, p.int)
		}
	}
	return nil
}

// sweepResult is one paper-sweep pass: every experiment's report in
// registry (ID) order, whatever order the pass ran them in.
type sweepResult struct {
	Reports []*cllm.ExperimentReport
	// Rows counts the rendered table lines over all experiments.
	Rows int
}

func checkSweep(r *sweepResult) error {
	var failed []string
	for _, e := range r.Reports {
		if !e.Passed {
			failed = append(failed, fmt.Sprintf("%s %v", e.ID, e.FailedChecks))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("shape checks failed: %v", failed)
	}
	return nil
}
