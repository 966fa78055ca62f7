package autoscale

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"testing"

	"cllm/internal/serve"
	"cllm/internal/stats"
	"cllm/internal/tee"
)

// reportDigest hashes every exported field of v: integers and booleans by
// value, floats by their IEEE-754 bits, strings by content. A quantile
// sketch, whose state is unexported, is hashed through its count, extrema,
// bucket count and a quantile grid. Equal digests mean byte-identical
// reports.
func reportDigest(v any) string {
	h := sha256.New()
	digestValue(h, reflect.ValueOf(v))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

var sketchPtr = reflect.TypeOf((*stats.Sketch)(nil))

func digestValue(h hash.Hash, v reflect.Value) {
	var buf [8]byte
	putU := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	putF := func(f float64) { putU(math.Float64bits(f)) }
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
		putF(v.Float())
	case reflect.String:
		putU(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			h.Write([]byte{0})
			return
		}
		h.Write([]byte{1})
		if v.Type() == sketchPtr {
			sk := v.Interface().(*stats.Sketch)
			putU(uint64(sk.Count()))
			putF(sk.Min())
			putF(sk.Max())
			putU(uint64(sk.Buckets()))
			for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
				putF(sk.Quantile(q))
			}
			return
		}
		digestValue(h, v.Elem())
	case reflect.Slice, reflect.Array:
		putU(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			digestValue(h, v.Index(i))
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

// sortedDigestTrace is a time-sorted trace with a lull, a burst that
// outgrows the standing fleet, and arrival ties.
func sortedDigestTrace() []serve.Request {
	var reqs []serve.Request
	at := 0.0
	for i := 0; i < 48; i++ {
		switch {
		case i < 8:
			at += 1.5
		case i < 40:
			if i%3 != 0 { // every third arrival ties with its predecessor
				at += 0.12
			}
		default:
			at += 2
		}
		reqs = append(reqs, serve.Request{ID: i, ArrivalSec: at, InputLen: 96 + 16*(i%5), OutputLen: 12 + i%7})
	}
	return reqs
}

// TestAutoscaleDigestPins pins autoscale.Run's aggregate report, class
// usage and control-window series over both dispatch policies, with and
// without cold starts, in both quantile modes, on a bursty scenario and on
// a sorted trace.
func TestAutoscaleDigestPins(t *testing.T) {
	loads := []struct {
		name string
		cfg  func() serve.Config
	}{
		{"bursty", func() serve.Config { return testServeConfig(t, 64) }},
		{"trace-sorted", func() serve.Config {
			c := testServeConfig(t, 0)
			c.Scenario = nil
			c.Trace = sortedDigestTrace()
			return c
		}},
	}
	for _, l := range loads {
		for _, d := range []Dispatch{Uniform, CostAware} {
			for _, cold := range []float64{0, 12} {
				for _, mode := range []serve.QuantileMode{serve.QuantileExact, serve.QuantileSketch} {
					name := fmt.Sprintf("%s/%s/cold%g/%s", l.name, d, cold, mode)
					t.Run(name, func(t *testing.T) {
						scfg := l.cfg()
						scfg.QuantileMode = mode
						rep, err := runProbed(t, []Class{
							{Name: "tdx", Backend: testBackend(tee.TDX()), HourlyUSD: 0.83, ColdStartSec: cold, Min: 1, Max: 3},
							{Name: "cgpu", Backend: gpuBackend(tee.CGPU()), HourlyUSD: 9.40, ColdStartSec: cold / 2, Min: 0, Max: 1},
						}, Config{Serve: scfg, Dispatch: d, IntervalSec: 5, TargetUtil: 0.6})
						if err != nil {
							t.Fatal(err)
						}
						got := reportDigest(struct {
							Aggregate *serve.Report
							Usage     []ClassUsage
							Windows   []Window
						}{rep.Aggregate, rep.Usage, rep.Windows})
						if want := autoscaleDigestPins[name]; got != want {
							t.Errorf("digest %q, want %q", got, want)
						}
					})
				}
			}
		}
	}
}

var autoscaleDigestPins = map[string]string{
	"bursty/uniform/cold0/exact":            "b5c0890b19f6dd52",
	"bursty/uniform/cold0/sketch":           "7bab16a6c5ebefd0",
	"bursty/uniform/cold12/exact":           "43ec5d854baa78ad",
	"bursty/uniform/cold12/sketch":          "0b6df7b8c7159990",
	"bursty/cost-aware/cold0/exact":         "6c93688d3f9727a8",
	"bursty/cost-aware/cold0/sketch":        "3cf9b7e98bd45fac",
	"bursty/cost-aware/cold12/exact":        "67da22115fb68048",
	"bursty/cost-aware/cold12/sketch":       "1330791adea5e269",
	"trace-sorted/uniform/cold0/exact":      "b7fd1ec7000ab835",
	"trace-sorted/uniform/cold0/sketch":     "3784ea9a005b9697",
	"trace-sorted/uniform/cold12/exact":     "aa76d6ebffd9891d",
	"trace-sorted/uniform/cold12/sketch":    "cc6533cb174610fa",
	"trace-sorted/cost-aware/cold0/exact":   "9394bcf4a6503884",
	"trace-sorted/cost-aware/cold0/sketch":  "3480119b6298956d",
	"trace-sorted/cost-aware/cold12/exact":  "912ebcf72dfa4aac",
	"trace-sorted/cost-aware/cold12/sketch": "f09f407f664d0dc9",
}
