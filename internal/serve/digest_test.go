package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"testing"

	"cllm/internal/stats"
	"cllm/internal/tee"
	"cllm/internal/workload"
)

// outputDigest hashes every exported field of v: integers and booleans by
// value, floats by their IEEE-754 bits, strings by content. A quantile
// sketch, whose state is unexported, is hashed through the part of its
// summary that does not depend on the order values were added in: count,
// extrema, bucket count and a quantile grid. (Its float Sum regroups with
// the accumulation order; a report's Mean fields carry it.) Two runs with
// equal digests produced byte-identical reports.
func outputDigest(v any) string {
	h := sha256.New()
	digestInto(h, reflect.ValueOf(v))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

var sketchType = reflect.TypeOf((*stats.Sketch)(nil))

func digestInto(h hash.Hash, v reflect.Value) {
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
		if v.Type() == sketchType {
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
		digestInto(h, v.Elem())
	case reflect.Slice, reflect.Array:
		putU(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			digestInto(h, v.Index(i))
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if t.Field(i).IsExported() {
				h.Write([]byte(t.Field(i).Name))
				digestInto(h, v.Field(i))
			}
		}
	default:
		panic(fmt.Sprintf("digest: unsupported kind %v", v.Kind()))
	}
}

// withoutMeans returns a copy of rep with the three Mean fields and the
// sketch pointers cleared: the parts of a sketched fleet report that
// depend on the order completions are summed in.
func withoutMeans(rep *Report) *Report {
	c := *rep
	c.TTFT.Mean, c.TPOT.Mean, c.Latency.Mean = 0, 0, 0
	c.TTFTSketch, c.TPOTSketch, c.LatencySketch = nil, nil, nil
	return &c
}

// digestLoad is one offered load of the pin matrix: a backend for the
// single-replica and unified-fleet runners (the disaggregated runner
// brings its own) and the run configuration.
type digestLoad struct {
	name string
	be   Backend
	cfg  Config
}

func digestLoads(t *testing.T) []digestLoad {
	t.Helper()
	scenario := func(name string, rate float64) *workload.Scenario {
		sc, err := workload.ParseScenario(name, rate)
		if err != nil {
			t.Fatal(err)
		}
		return &sc
	}
	tdx := cpuBackend(tee.TDX())
	var loads []digestLoad
	add := func(name string, be Backend, cfg Config) {
		loads = append(loads, digestLoad{name, be, cfg})
	}
	add("poisson", tdx, tinyConfig(25, 40))
	// A KV pool of 160 tokens: overload preempts, and sheds and crashes
	// find queues to act on.
	tiny, pressure := preemptionHeavyConfig()
	pressure.Rate, pressure.Requests, pressure.LengthJitter = 400, 60, 0
	add("overload", tiny, pressure)
	{
		c := tinyConfig(30, 60)
		c.Workload.InputLen = 256
		c.PrefixSharing = true
		c.PrefixGroups = 3
		add("prefix", tdx, c)
	}
	{
		c := tinyConfig(40, 50)
		c.Workload.InputLen = 512
		c.ChunkTokens = 64
		add("chunked", tdx, c)
	}
	{
		be, c := preemptionHeavyConfig()
		c.PreemptPolicy = PreemptSwap
		add("swap", be, c)
	}
	{
		c := pressure
		c.Rate, c.Requests = 50, 40
		c.Faults.MTBFSec = 0.3
		c.RecoverySec = 0.1
		c.Faults.RetryMax = 1
		c.Faults.Policy = FailLost
		add("mtbf-retry", tiny, c)
	}
	{
		// Crashes land on the very instants trace arrivals do: the arrival
		// runs first, so the crash sees it queued.
		c := tinyConfig(1, 0)
		for i := 0; i < 12; i++ {
			c.Trace = append(c.Trace, Request{ID: i, ArrivalSec: 0.25 * float64(i), InputLen: 64, OutputLen: 16})
		}
		c.Faults.Plan = []FailPoint{{Replica: 0, TimeSec: 1}, {Replica: 0, TimeSec: 2}, {Replica: 1, TimeSec: 2}}
		c.RecoverySec = 0.3
		add("failplan-ties", tdx, c)
	}
	{
		c := pressure
		c.Faults.Admission = AdmitShed
		c.DeadlineSec = 0.02
		c.Faults.RetryMax = 1
		add("shed", tiny, c)
	}
	{
		c := tinyConfig(0, 60)
		c.Scenario = scenario("bursty+chat", 20)
		c.Faults.Admission = AdmitDeadline
		add("deadline-bursty-chat", tdx, c)
	}
	{
		c := tinyConfig(0, 50)
		c.Scenario = scenario("diurnal", 25)
		add("diurnal", tdx, c)
	}
	{
		c := tinyConfig(0, 40)
		c.Scenario = scenario("poisson+rag", 10)
		c.PrefixSharing = true
		add("poisson-rag", tdx, c)
	}
	sorted := []Request{
		{ID: 0, ArrivalSec: 0, InputLen: 64, OutputLen: 8},
		{ID: 1, ArrivalSec: 0.05, InputLen: 96, OutputLen: 6},
		{ID: 2, ArrivalSec: 0.05, InputLen: 32, OutputLen: 12},
		{ID: 3, ArrivalSec: 0.2, InputLen: 64, OutputLen: 8},
		{ID: 4, ArrivalSec: 0.9, InputLen: 128, OutputLen: 4},
		{ID: 5, ArrivalSec: 1.4, InputLen: 64, OutputLen: 8},
		{ID: 6, ArrivalSec: 1.4, InputLen: 64, OutputLen: 8},
	}
	{
		c := tinyConfig(1, 0)
		c.Trace = sorted
		add("trace-sorted-ties", tdx, c)
	}
	{
		c := tinyConfig(1, 0)
		c.Trace = unsortedTrace()
		add("trace-unsorted", tdx, c)
	}
	return loads
}

// unsortedTrace lists its arrivals out of time order, with ties both
// adjacent and far apart in the list.
func unsortedTrace() []Request {
	return []Request{
		{ID: 0, ArrivalSec: 0.9, InputLen: 64, OutputLen: 8},
		{ID: 1, ArrivalSec: 0.05, InputLen: 96, OutputLen: 6},
		{ID: 2, ArrivalSec: 0.5, InputLen: 32, OutputLen: 12},
		{ID: 3, ArrivalSec: 0.05, InputLen: 64, OutputLen: 8},
		{ID: 4, ArrivalSec: 0, InputLen: 128, OutputLen: 4},
		{ID: 5, ArrivalSec: 0.9, InputLen: 64, OutputLen: 8},
		{ID: 6, ArrivalSec: 0.5, InputLen: 64, OutputLen: 8},
		{ID: 7, ArrivalSec: 0.3, InputLen: 48, OutputLen: 10},
	}
}

// digestRunner runs one load and returns its digest, plus (for sketched
// fleet runs) the digest with the order-dependent means cleared.
type digestRunner struct {
	name string
	run  func(t *testing.T, l digestLoad) (full, stripped string)
}

func digestRunners() []digestRunner {
	fleet := func(policy LBPolicy) func(*testing.T, digestLoad) (string, string) {
		return func(t *testing.T, l digestLoad) (string, string) {
			rep, err := RunFleet(l.be, l.cfg, FleetConfig{Replicas: 3, Policy: policy})
			return fleetDigests(rep, err)
		}
	}
	return []digestRunner{
		{"single", func(t *testing.T, l digestLoad) (string, string) {
			rep, order, err := RunAudited(l.be, l.cfg)
			if err != nil {
				return "error: " + err.Error(), ""
			}
			return outputDigest(struct {
				Report *Report
				Order  AdmitOrder
			}{rep, order}), ""
		}},
		{"fleet-least-loaded", fleet(LeastLoaded)},
		{"fleet-prefix-affinity", fleet(PrefixAffinity)},
		{"fleet-round-robin", fleet(RoundRobin)},
		{"disagg", func(t *testing.T, l digestLoad) (string, string) {
			f, err := NewFleet(disaggTopology())
			if err != nil {
				t.Fatal(err)
			}
			return fleetDigests(f.Run(l.cfg))
		}},
	}
}

func fleetDigests(rep *FleetReport, err error) (string, string) {
	if err != nil {
		return "error: " + err.Error(), ""
	}
	full := outputDigest(rep)
	if !rep.Aggregate.Sketched {
		return full, ""
	}
	c := *rep
	c.Aggregate = withoutMeans(rep.Aggregate)
	c.PerReplica = make([]*Report, len(rep.PerReplica))
	for i, r := range rep.PerReplica {
		c.PerReplica[i] = withoutMeans(r)
	}
	return full, outputDigest(&c)
}

// TestOutputDigestPins pins every runner's output over a matrix of loads
// in both quantile modes. Each digest covers every exported field of the
// report (floats by IEEE bits) and, for single-replica runs, the
// admission order.
func TestOutputDigestPins(t *testing.T) {
	for _, r := range digestRunners() {
		for _, mode := range []QuantileMode{QuantileExact, QuantileSketch} {
			for _, l := range digestLoads(t) {
				name := r.name + "/" + mode.String() + "/" + l.name
				t.Run(name, func(t *testing.T) {
					l.cfg.QuantileMode = mode
					full, stripped := r.run(t, l)
					want, ok := digestPins[name]
					if !ok || full != want {
						t.Errorf("digest %q, want %q", full, want)
					}
					if want := parentStrippedPins[name]; stripped != want {
						t.Errorf("digest without means %q, want %q", stripped, want)
					}
				})
			}
		}
	}
}

var digestPins = map[string]string{
	"single/exact/poisson":              "f770b0563288fb82",
	"single/exact/overload":             "74bee98cfead4dd2",
	"single/exact/prefix":               "ee9df2cb66901948",
	"single/exact/chunked":              "1eec64250beae255",
	"single/exact/swap":                 "9d669832d1e14b63",
	"single/exact/mtbf-retry":           "bb3a02f3c229e2e4",
	"single/exact/failplan-ties":        "6e19090b7b473178",
	"single/exact/shed":                 "aac60fc4a601d14d",
	"single/exact/deadline-bursty-chat": "667e311027358a26",
	"single/exact/diurnal":              "89ee492b0faad987",
	"single/exact/poisson-rag":          "0a4d4319bfb1a5ec",
	"single/exact/trace-sorted-ties":    "e22eebd670f6cdef",
	"single/exact/trace-unsorted":       "666bd74f45da6c77",
	"single/sketch/poisson":             "93fafe17fa9e1951",
	"single/sketch/overload":            "3af0ed4bced51fa3",
	"single/sketch/prefix":              "1ad5a89604acb541",
	"single/sketch/chunked":             "4fb81367876530e9",
	"single/sketch/swap":                "d8362803636587bd",
	"single/sketch/mtbf-retry":          "99aaf6691eca6a5d",
	"single/sketch/failplan-ties":       "9063a7ab79bc1891",
	"single/sketch/shed":                "874592af0dfa6970",
	// Moved: a sketch-mode scenario run now takes the exact mode's sample
	// path (two-pass synthesis) instead of interleaving time and shape draws.
	"single/sketch/deadline-bursty-chat": "d43ae58718b24eb0",
	// Moved: a sketch-mode scenario run now takes the exact mode's sample
	// path (two-pass synthesis) instead of interleaving time and shape draws.
	"single/sketch/diurnal": "58c85820e8833958",
	// Moved: a sketch-mode scenario run now takes the exact mode's sample
	// path (two-pass synthesis) instead of interleaving time and shape draws.
	"single/sketch/poisson-rag":       "def02db2c9d43da3",
	"single/sketch/trace-sorted-ties": "8896dccf33e96514",
	// Moved: a sketch-mode run now accepts an unsorted trace (it was an
	// error) and replays it in stable arrival order.
	"single/sketch/trace-unsorted":                  "929eca59f8e3e312",
	"fleet-least-loaded/exact/poisson":              "9f0053fa5a76019d",
	"fleet-least-loaded/exact/overload":             "62f3f98902d3c4c7",
	"fleet-least-loaded/exact/prefix":               "0db422f6d08e7135",
	"fleet-least-loaded/exact/chunked":              "1e2ac1865ae84627",
	"fleet-least-loaded/exact/swap":                 "92af6f271d8bc235",
	"fleet-least-loaded/exact/mtbf-retry":           "edf065b8fee1f4a1",
	"fleet-least-loaded/exact/failplan-ties":        "dfcd5e7ce30c12c9",
	"fleet-least-loaded/exact/shed":                 "a4d3e893f2749adf",
	"fleet-least-loaded/exact/deadline-bursty-chat": "355f1e6443f42ab7",
	"fleet-least-loaded/exact/diurnal":              "7b3dc8a431549921",
	"fleet-least-loaded/exact/poisson-rag":          "1623253c6db322d0",
	"fleet-least-loaded/exact/trace-sorted-ties":    "26c1319985a086f9",
	"fleet-least-loaded/exact/trace-unsorted":       "84b92bfa5c077244",
	"fleet-least-loaded/sketch/poisson":             "87ce051201cad6e5",
	"fleet-least-loaded/sketch/overload":            "c0d841611af18ff3",
	"fleet-least-loaded/sketch/prefix":              "8339f037ac16cb5c",
	"fleet-least-loaded/sketch/chunked":             "56e6c1e2434c1295",
	"fleet-least-loaded/sketch/swap":                "d46df0d8e4db2e6a",
	"fleet-least-loaded/sketch/mtbf-retry":          "08d41c86435d7a5c",
	"fleet-least-loaded/sketch/failplan-ties":       "7e7486091c3e6715",
	// Moved: the fleet's sketched means now sum in completion order, not
	// dispatch order; parentStrippedPins shows nothing else moved.
	"fleet-least-loaded/sketch/shed":                   "50dee9bdc3fda958",
	"fleet-least-loaded/sketch/deadline-bursty-chat":   "db7e10bd1d33973d",
	"fleet-least-loaded/sketch/diurnal":                "ffb7caf9968de60d",
	"fleet-least-loaded/sketch/poisson-rag":            "c761f103e6501591",
	"fleet-least-loaded/sketch/trace-sorted-ties":      "fea997094d1059f2",
	"fleet-least-loaded/sketch/trace-unsorted":         "8baaa86fd35f2e10",
	"fleet-prefix-affinity/exact/poisson":              "0d7a94e6bc0ef660",
	"fleet-prefix-affinity/exact/overload":             "d58d0bfef7147133",
	"fleet-prefix-affinity/exact/prefix":               "9a66589f319244a2",
	"fleet-prefix-affinity/exact/chunked":              "9c1fcb2195462b71",
	"fleet-prefix-affinity/exact/swap":                 "74f859d4b0727b52",
	"fleet-prefix-affinity/exact/mtbf-retry":           "e03d6347b3c202af",
	"fleet-prefix-affinity/exact/failplan-ties":        "20ebc468c36134f9",
	"fleet-prefix-affinity/exact/shed":                 "315e5da6027f546c",
	"fleet-prefix-affinity/exact/deadline-bursty-chat": "f958c66d01aea45d",
	"fleet-prefix-affinity/exact/diurnal":              "5939eea4c50948f5",
	"fleet-prefix-affinity/exact/poisson-rag":          "301ed8f8e19bcc95",
	"fleet-prefix-affinity/exact/trace-sorted-ties":    "e992b0050c28005a",
	"fleet-prefix-affinity/exact/trace-unsorted":       "eb5176d6f8162f10",
	"fleet-prefix-affinity/sketch/poisson":             "6feed1e871058102",
	"fleet-prefix-affinity/sketch/overload":            "775cd9d78ba3b912",
	"fleet-prefix-affinity/sketch/prefix":              "a713f99ee2653a4d",
	"fleet-prefix-affinity/sketch/chunked":             "f3eb6b4219082df1",
	"fleet-prefix-affinity/sketch/swap":                "66cb185d129eddb1",
	"fleet-prefix-affinity/sketch/mtbf-retry":          "cd34125ab66542f9",
	"fleet-prefix-affinity/sketch/failplan-ties":       "46011840aca91625",
	// Moved: the fleet's sketched means now sum in completion order, not
	// dispatch order; parentStrippedPins shows nothing else moved.
	"fleet-prefix-affinity/sketch/shed":                 "1a43df6671b3cfaf",
	"fleet-prefix-affinity/sketch/deadline-bursty-chat": "60ddc465f23fa728",
	"fleet-prefix-affinity/sketch/diurnal":              "2c53baab0f6e54bb",
	// Moved: the fleet's sketched means now sum in completion order, not
	// dispatch order; parentStrippedPins shows nothing else moved.
	"fleet-prefix-affinity/sketch/poisson-rag":       "35864216cb23d2ad",
	"fleet-prefix-affinity/sketch/trace-sorted-ties": "00969e1d264a06a8",
	"fleet-prefix-affinity/sketch/trace-unsorted":    "196bab4bf0c6ecab",
	"fleet-round-robin/exact/poisson":                "2f04181fcb573bc9",
	"fleet-round-robin/exact/overload":               "f28f36fd9adf5711",
	"fleet-round-robin/exact/prefix":                 "67e4c04fe77be666",
	"fleet-round-robin/exact/chunked":                "ad7f1ddd465e9098",
	"fleet-round-robin/exact/swap":                   "fb467c4ba2c394c6",
	"fleet-round-robin/exact/mtbf-retry":             "502e6bcac5f94e95",
	"fleet-round-robin/exact/failplan-ties":          "f8f3680b12fdab00",
	"fleet-round-robin/exact/shed":                   "40638ca673172d1e",
	"fleet-round-robin/exact/deadline-bursty-chat":   "b689f114dffe5e7e",
	"fleet-round-robin/exact/diurnal":                "50bb9330b567c0fb",
	"fleet-round-robin/exact/poisson-rag":            "1c9cc9869459df16",
	"fleet-round-robin/exact/trace-sorted-ties":      "29e5bd08d8776766",
	"fleet-round-robin/exact/trace-unsorted":         "4acd2bcdd66d9817",
	"fleet-round-robin/sketch/poisson":               "3f8cf5f94321e75d",
	"fleet-round-robin/sketch/overload":              "964f1ec7243a5392",
	"fleet-round-robin/sketch/prefix":                "c7b4bfd7d363c9d6",
	"fleet-round-robin/sketch/chunked":               "d4c8675513efff2c",
	"fleet-round-robin/sketch/swap":                  "3ece6e14672f15ca",
	"fleet-round-robin/sketch/mtbf-retry":            "4ab08ba8cf869880",
	"fleet-round-robin/sketch/failplan-ties":         "b4f640df431d4113",
	// Moved: the fleet's sketched means now sum in completion order, not
	// dispatch order; parentStrippedPins shows nothing else moved.
	"fleet-round-robin/sketch/shed":                 "59a953178620e614",
	"fleet-round-robin/sketch/deadline-bursty-chat": "87fc6f35b1c5398f",
	"fleet-round-robin/sketch/diurnal":              "647be313a92c60f3",
	"fleet-round-robin/sketch/poisson-rag":          "b407377bccbc7d68",
	"fleet-round-robin/sketch/trace-sorted-ties":    "88969190c8921dcf",
	"fleet-round-robin/sketch/trace-unsorted":       "50708c7fa6852bf1",
	"disagg/exact/poisson":                          "d26544addbfff7c9",
	"disagg/exact/overload":                         "4a1f0eda219fdd95",
	"disagg/exact/prefix":                           "ed0eaa950f238a23",
	"disagg/exact/chunked":                          "368c20266472f16b",
	"disagg/exact/swap":                             "4bb38c524e03fca3",
	"disagg/exact/mtbf-retry":                       "error: serve: fault injection is not supported with disaggregated topologies (a crash would strand in-flight handoffs)",
	"disagg/exact/failplan-ties":                    "error: serve: fault injection is not supported with disaggregated topologies (a crash would strand in-flight handoffs)",
	"disagg/exact/shed":                             "error: serve: admission policy shed is not supported with disaggregated topologies (deadlines do not survive the handoff edge)",
	"disagg/exact/deadline-bursty-chat":             "error: serve: admission policy deadline is not supported with disaggregated topologies (deadlines do not survive the handoff edge)",
	"disagg/exact/diurnal":                          "a7eed310d2c3255b",
	"disagg/exact/poisson-rag":                      "2b36fef78313557b",
	"disagg/exact/trace-sorted-ties":                "0cf808b0682c2a8f",
	"disagg/exact/trace-unsorted":                   "a00ffca3e5e4a6ef",
	"disagg/sketch/poisson":                         "ce66f57b623ee66e",
	// Moved: the fleet's sketched means now sum in completion order, not
	// dispatch order; parentStrippedPins shows nothing else moved.
	"disagg/sketch/overload":             "33cc9deee29feba6",
	"disagg/sketch/prefix":               "30f4333a444b214a",
	"disagg/sketch/chunked":              "6c22c4cb40daa297",
	"disagg/sketch/swap":                 "97ff1967e0f59623",
	"disagg/sketch/mtbf-retry":           "error: serve: fault injection is not supported with disaggregated topologies (a crash would strand in-flight handoffs)",
	"disagg/sketch/failplan-ties":        "error: serve: fault injection is not supported with disaggregated topologies (a crash would strand in-flight handoffs)",
	"disagg/sketch/shed":                 "error: serve: admission policy shed is not supported with disaggregated topologies (deadlines do not survive the handoff edge)",
	"disagg/sketch/deadline-bursty-chat": "error: serve: admission policy deadline is not supported with disaggregated topologies (deadlines do not survive the handoff edge)",
	// Moved: the fleet's sketched means now sum in completion order, not
	// dispatch order; parentStrippedPins shows nothing else moved.
	"disagg/sketch/diurnal": "4b6c23eec6a69172",
	// Moved: the fleet's sketched means now sum in completion order, not
	// dispatch order; parentStrippedPins shows nothing else moved.
	"disagg/sketch/poisson-rag":       "3eb0a120d9ce4e58",
	"disagg/sketch/trace-sorted-ties": "298509f4bb11c4b0",
	"disagg/sketch/trace-unsorted":    "3443cf7ad957151d",
}

var parentStrippedPins = map[string]string{
	"fleet-least-loaded/sketch/poisson":                 "ac4f438b93877f5b",
	"fleet-least-loaded/sketch/overload":                "11bf6a042215cf06",
	"fleet-least-loaded/sketch/prefix":                  "efce6d01d32067f3",
	"fleet-least-loaded/sketch/chunked":                 "7c6aca24a27b3cf4",
	"fleet-least-loaded/sketch/swap":                    "4f288582d4fff5a3",
	"fleet-least-loaded/sketch/mtbf-retry":              "e43d4b3b3146e900",
	"fleet-least-loaded/sketch/failplan-ties":           "0b3149cfe3508255",
	"fleet-least-loaded/sketch/shed":                    "584ee74b1f31e4b0",
	"fleet-least-loaded/sketch/deadline-bursty-chat":    "af2fb7cc5e2d95c5",
	"fleet-least-loaded/sketch/diurnal":                 "97d958313742c11c",
	"fleet-least-loaded/sketch/poisson-rag":             "b3425e26c4ac58d9",
	"fleet-least-loaded/sketch/trace-sorted-ties":       "de750c2749c5fc7b",
	"fleet-least-loaded/sketch/trace-unsorted":          "2df3c24b65b01047",
	"fleet-prefix-affinity/sketch/poisson":              "e67de9bfc21a58a8",
	"fleet-prefix-affinity/sketch/overload":             "61b361ba6317bb9b",
	"fleet-prefix-affinity/sketch/prefix":               "c31ec270e5986f98",
	"fleet-prefix-affinity/sketch/chunked":              "9e862cde2d4ae275",
	"fleet-prefix-affinity/sketch/swap":                 "2af61fe1d68ce80f",
	"fleet-prefix-affinity/sketch/mtbf-retry":           "48b3892183023ce3",
	"fleet-prefix-affinity/sketch/failplan-ties":        "ac25ea434f8453ea",
	"fleet-prefix-affinity/sketch/shed":                 "8ca52d430f419a38",
	"fleet-prefix-affinity/sketch/deadline-bursty-chat": "8c1f8bbbbf3f9cd9",
	"fleet-prefix-affinity/sketch/diurnal":              "9abc1ea18e9edf85",
	"fleet-prefix-affinity/sketch/poisson-rag":          "69f776e7207ead13",
	"fleet-prefix-affinity/sketch/trace-sorted-ties":    "94de2a4494e849b7",
	"fleet-prefix-affinity/sketch/trace-unsorted":       "25ed33567881b6c1",
	"fleet-round-robin/sketch/poisson":                  "c020000e2e182066",
	"fleet-round-robin/sketch/overload":                 "14886752a31b2be5",
	"fleet-round-robin/sketch/prefix":                   "5373ec88e51ec3f9",
	"fleet-round-robin/sketch/chunked":                  "61ef6c39812584aa",
	"fleet-round-robin/sketch/swap":                     "7a2e61d7edebbc1e",
	"fleet-round-robin/sketch/mtbf-retry":               "8ee0e7be327efde4",
	"fleet-round-robin/sketch/failplan-ties":            "3f7745ef83fd650b",
	"fleet-round-robin/sketch/shed":                     "d32f440ee3272c04",
	"fleet-round-robin/sketch/deadline-bursty-chat":     "371932cf3e2ce0bd",
	"fleet-round-robin/sketch/diurnal":                  "b26cb94b48877ea4",
	"fleet-round-robin/sketch/poisson-rag":              "daad529adc306f1c",
	"fleet-round-robin/sketch/trace-sorted-ties":        "77f77b88acdbd3a1",
	"fleet-round-robin/sketch/trace-unsorted":           "2370f152efcb8626",
	"disagg/sketch/poisson":                             "53685ef40a429b52",
	"disagg/sketch/overload":                            "19bcfbe35ffc8ac1",
	"disagg/sketch/prefix":                              "ec3311356c2522b0",
	"disagg/sketch/chunked":                             "199e75acfdc699ff",
	"disagg/sketch/swap":                                "31b18325e1f7429c",
	"disagg/sketch/diurnal":                             "91b3d45f0f4fa2c4",
	"disagg/sketch/poisson-rag":                         "55764112a78e831c",
	"disagg/sketch/trace-sorted-ties":                   "647b5f089a087c32",
	"disagg/sketch/trace-unsorted":                      "94011e0c11f11527",
}
