package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileStacks decodes a CPU profile as runtime/pprof writes it (gzipped
// profile.proto) into its samples: each stack as function names from the
// innermost frame outward, with the sample's CPU nanoseconds. Only the
// fields the layer attribution needs are read.
func profileStacks(gz []byte) (stacks [][]string, weights []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]int64{}    // function id → string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, inlined callee first
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = pbAppendUints(s.locs, v, b)
				case 2:
					for _, u := range pbAppendUints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcName[f]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		if len(s.values) == 0 {
			continue
		}
		stacks = append(stacks, stack)
		weights = append(weights, s.values[len(s.values)-1])
	}
	return stacks, weights, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbFields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbAppendUints appends a repeated varint field given either unpacked (v)
// or packed (data).
func pbAppendUints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := pbVarint(data)
		if n == 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

// layerRules map a profile frame to the layer it belongs to. A sample is
// charged to the layer of its innermost frame that matches a rule, so
// runtime work (allocation, map access) counts toward the simulator
// function that asked for it; collector frames anywhere on the stack
// charge the sample to runtime.gc first.
var layerRules = []struct{ prefix, layer string }{
	{"cllm/internal/sim.(*Noise)", "sim.noise"},
	{"cllm/internal/sim.", "sim.engine"},
	{"cllm/internal/workload.", "workload.arrivals"},
	{"cllm/internal/serve.genArrivals", "workload.arrivals"},
	{"cllm/internal/serve.scenarioArrivals", "workload.arrivals"},
	{"cllm/internal/serve.newArrivalSource", "workload.arrivals"},
	{"cllm/internal/serve.(*arrivalSource)", "workload.arrivals"},
	{"cllm/internal/serve.Arrivals", "workload.arrivals"},
	{"cllm/internal/serve.(*BlockManager)", "serve.kv"},
	{"cllm/internal/serve.(*stageLB)", "serve.fleet"},
	{"cllm/internal/serve.(*Fleet)", "serve.fleet"},
	{"cllm/internal/serve.(*handoffDispatcher)", "serve.fleet"},
	{"cllm/internal/serve.MergeReports", "serve.fleet"},
	{"cllm/internal/serve.RunFleet", "serve.fleet"},
	{"cllm/internal/serve.quantiles", "stats.report"},
	{"cllm/internal/serve.sketchQuantiles", "stats.report"},
	{"cllm/internal/serve.(*streamAccum)", "stats.report"},
	{"cllm/internal/stats.", "stats.report"},
	{"cllm/internal/perf.", "perf.coster"},
	{"cllm/internal/trace.", "perf.coster"},
	{"cllm/internal/obs.(*Attribution)", "obs.attrib"},
	{"cllm/internal/obs.", "obs.export"},
	{"cllm/internal/model.", "model.forward"},
	{"cllm/internal/tensor.", "model.forward"},
	{"cllm/internal/rag.", "model.forward"},
	{"cllm/internal/serve.", "serve.sched"},
	// The experiment harness and the benchmark itself are no layer.
	{"cllm/internal/harness.", ""},
	{"main.", ""},
	{"cllm.", "cllm.setup"},
}

var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.markroot",
}

// layerOf names the layer a stack (innermost frame first) is charged to,
// or "" when no rule matches or the first match is no layer.
func layerOf(stack []string) string {
	for _, f := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "runtime.gc"
			}
		}
	}
	for _, f := range stack {
		for _, r := range layerRules {
			if strings.HasPrefix(f, r.prefix) {
				return r.layer
			}
		}
	}
	return ""
}

// profileShares accumulates CPU time per layer over the given profiles.
type profileShares struct {
	byLayer map[string]int64
	total   int64
}

func (p *profileShares) add(gz []byte) error {
	stacks, weights, err := profileStacks(gz)
	if err != nil {
		return err
	}
	if p.byLayer == nil {
		p.byLayer = map[string]int64{}
	}
	for i, st := range stacks {
		p.byLayer[layerOf(st)] += weights[i]
		p.total += weights[i]
	}
	return nil
}

// share is layer's fraction of all profiled CPU time.
func (p *profileShares) share(layer string) float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.byLayer[layer]) / float64(p.total)
}
