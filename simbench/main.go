// Command simbench measures the serving simulator's own speed and memory:
// host time, simulated throughput per host second, set-up time, peak RSS
// and allocations on four workloads, with a traced mode that breaks a run
// down by layer. See README.md for the workloads, metrics and seeds.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash simbench/run.sh --workload chat-steady --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"cllm"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run prints (BENCHMARK.json
// "end_to_end"; the self-tests keep the two in step).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"simtok_per_s", "1/s"},
	{"simreq_per_s", "1/s"},
	{"peak_rss_mib", "MiB"},
	{"allocs_per_op", "count"},
}

// Repetition counts: set-ups timed per run, fresh processes whose peak RSS
// is taken, and the fewest timed repetitions a run reports a median of.
// Peak RSS is a trimmed mean, not a median: where the collector's cycle
// falls splits one workload's probes between two levels a tenth apart, and
// a median of a few probes flips between them, while another workload has
// a rare probe half again as high, which a plain mean would carry.
const (
	setupReps = 61
	rssReps   = 5
	minReps   = 3
)

// paperPlatforms are the platforms the paper compares; paper-sweep's
// set-up opens a session on each.
var paperPlatforms = []string{"baremetal", "vm", "tdx", "sgx", "gpu", "cgpu"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: chat-steady|rag-fleet|disagg-attrib|paper-sweep")
	seed := fl.Int64("seed", 1, "input seed (arrivals, lengths, step noise; experiment order on paper-sweep)")
	seconds := fl.Float64("seconds", 10, "host seconds of timed repetitions")
	traced := fl.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of the end-to-end ones")
	scale := fl.Float64("scale", 1, "scales each repetition's size (small values for self-tests)")
	child := fl.Bool("rss-child", false, "run one repetition and print its digest (peak-RSS probe)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	sp, err := lookupSpec(*name)
	if err != nil || *seconds <= 0 || *scale <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "simbench: bad arguments: workload %q seconds %g scale %g trace %d: %v\n",
			*name, *seconds, *scale, *traced, err)
		return 2
	}
	// One P: a serving simulation is one goroutine, so a second P would
	// only let the collector run beside it, and on a small shared host
	// that made repetition times several times noisier. paper-sweep keeps
	// its nproc harness workers, interleaved on the one P.
	runtime.GOMAXPROCS(1)
	b := newBench(sp, *seed, *scale, stderr)
	if *child {
		d, err := b.childRep()
		if err != nil {
			fmt.Fprintf(stderr, "simbench: %v\n", err)
			return 1
		}
		hwm, err := vmHWM()
		if err != nil {
			fmt.Fprintf(stderr, "simbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "digest %s\nvmhwm_kib %d\n", d, hwm)
		return 0
	}

	fmt.Fprintln(stdout, fingerprint())
	res, err := b.measure(time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "digest workload=%s seed=%d sha=%s\n", sp.name, *seed, b.digest)
	if *traced == 0 {
		fmt.Fprintf(stdout, "raw wall_s=%.6f setup_s=%.6f ref_s=%.6f\n", b.raw.wall, b.raw.setup, b.raw.ref)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// bench holds one run's state: the workload, its seed, and the tally of
// checked simulation runs.
type bench struct {
	spec  spec
	seed  int64
	scale float64
	n     int // requests per serving repetition
	log   io.Writer

	attempted, failed int
	digest            string
	totalTokens       int // simulated output tokens of one serving repetition
	// raw keeps the unscaled medians (and the reference kernel's median
	// time) for the raw line.
	raw struct{ wall, setup, ref float64 }
}

func newBench(sp spec, seed int64, scale float64, log io.Writer) *bench {
	n := int(float64(sp.requests)*scale + 0.5)
	if n < 1 {
		n = 1
	}
	return &bench{spec: sp, seed: seed, scale: scale, n: n, log: log}
}

// record counts one checked simulation run; err marks it failed.
func (b *bench) record(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.log, "simbench: check failed (%s): %v\n", what, err)
	}
}

// noteDigest checks d against the first repetition's digest.
func (b *bench) noteDigest(d string) error {
	if b.digest == "" {
		b.digest = d
	} else if d != b.digest {
		return fmt.Errorf("digest %s differs from the first repetition's %s", d, b.digest)
	}
	return nil
}

// repStats is one timed repetition. ops counts its offered requests (or
// experiments on paper-sweep), tokens its simulated output tokens (or
// rendered table rows), ref the reference kernel's time around it.
type repStats struct {
	wall, ref   float64
	ops, tokens int
	allocs      uint64
	gcCycles    uint32
}

// scaled is the repetition's wall time in reference-host seconds.
func (r repStats) scaled() float64 { return r.wall * refNominalSec / r.ref }

// measure runs set-up, an audit repetition, timed repetitions for d and,
// untraced, the fresh-process RSS probes.
func (b *bench) measure(d time.Duration, traced bool) (*result, error) {
	// Set-ups take a millisecond or less, so each is scaled by the kernel
	// runs on either side of it.
	var setups, scaledSetups []float64
	prev := refSeconds()
	for i := 0; i < setupReps; i++ {
		s, err := b.setupOnce()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		next := refSeconds()
		setups = append(setups, s)
		scaledSetups = append(scaledSetups, s*refNominalSec/((prev+next)/2))
		prev = next
	}
	var sess *cllm.Session
	if b.spec.serve != nil {
		var err error
		if sess, err = b.open(); err != nil {
			return nil, err
		}
		if err := b.audit(sess); err != nil {
			return nil, err
		}
	}
	if traced {
		m, err := b.traced(sess, d, median(setups))
		if err != nil {
			return nil, err
		}
		return b.result(perLayer, m), nil
	}
	reps, err := b.timedReps(sess, d, nil)
	if err != nil {
		return nil, err
	}
	var rss []float64
	for i := 0; i < rssReps; i++ {
		if mib, err := b.rssProbe(); err == nil {
			rss = append(rss, mib)
		}
	}
	b.raw.wall = median(mapReps(reps, func(r repStats) float64 { return r.wall }))
	b.raw.setup = median(setups)
	b.raw.ref = median(mapReps(reps, func(r repStats) float64 { return r.ref }))
	m := map[string]float64{
		"setup_s":       median(scaledSetups),
		"wall_s":        median(mapReps(reps, repStats.scaled)),
		"simtok_per_s":  median(mapReps(reps, func(r repStats) float64 { return float64(r.tokens) / r.scaled() })),
		"simreq_per_s":  median(mapReps(reps, func(r repStats) float64 { return float64(r.ops) / r.scaled() })),
		"peak_rss_mib":  trimmedMean(rss),
		"allocs_per_op": median(mapReps(reps, func(r repStats) float64 { return float64(r.allocs) / float64(r.ops) })),
	}
	return b.result(endToEnd, m), nil
}

func (b *bench) result(defs []metricDef, values map[string]float64) *result {
	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return res
}

func (b *bench) open() (*cllm.Session, error) {
	sess, err := cllm.Open(cllm.Config{Platform: b.spec.platform, Seed: b.seed})
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", b.spec.platform, err)
	}
	return sess, nil
}

// setupOnce times one fresh set-up: opening (and attesting) a session and
// serving a single request with the workload's configuration, which builds
// the config, the step-costing tables, the fleet and its replicas. On
// paper-sweep it does that for every platform the paper compares.
func (b *bench) setupOnce() (float64, error) {
	start := time.Now()
	if b.spec.serve == nil {
		for _, p := range paperPlatforms {
			sess, err := cllm.Open(cllm.Config{Platform: p, Seed: paperSeed})
			if err != nil {
				return 0, err
			}
			if _, err := sess.Serve(cllm.ServeConfig{RatePerSec: 1, Requests: 1}); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds(), nil
	}
	sess, err := b.open()
	if err != nil {
		return 0, err
	}
	if _, err := sess.Serve(b.spec.config(1)); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// audit runs one untimed repetition through the internal API, checks the
// invariants only its report exposes, and keeps its token count for the
// throughput metric. It also warms the process before timing starts.
func (b *bench) audit(sess *cllm.Session) error {
	ir, err := b.spec.runInternal(b.n, b.seed, nil)
	if err != nil {
		return fmt.Errorf("audit run: %w", err)
	}
	b.record("audit", checkInternal(ir.rep))
	b.totalTokens = ir.rep.TotalTokens
	pub, err := sess.Serve(b.spec.config(b.n))
	if err != nil {
		return fmt.Errorf("audit run: %w", err)
	}
	b.record("public vs internal", crossCheck(pub, ir.rep))
	return nil
}

// timedReps repeats the workload until d has passed (at least minReps
// times). each, when set, runs around every repetition (profiling).
func (b *bench) timedReps(sess *cllm.Session, d time.Duration, each func(start bool)) ([]repStats, error) {
	var reps []repStats
	start := time.Now()
	var prev refClock
	prev.sample(refBracket)
	for len(reps) < minReps || time.Since(start) < d {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if each != nil {
			each(true)
		}
		var rs repStats
		var dg string
		var err error
		var inner refClock
		if sess != nil {
			rs, dg, err = b.serveRep(sess)
		} else if each != nil {
			rs, dg, err = b.sweepRep(nil) // keep the kernel out of the profile
		} else {
			rs, dg, err = b.sweepRep(&inner)
		}
		if each != nil {
			each(false)
		}
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		rs.allocs = m1.Mallocs - m0.Mallocs - inner.allocs
		rs.gcCycles = m1.NumGC - m0.NumGC
		var post refClock
		post.sample(refBracket)
		all := prev
		all.add(inner)
		all.add(post)
		rs.ref = all.mean()
		prev = post
		b.record("repetition", b.noteDigest(dg))
		reps = append(reps, rs)
		fmt.Fprintf(b.log, "simbench: repetition %d: %.4f s (reference kernel %.4f s), %d allocs, %d GC cycles\n",
			len(reps), rs.wall, rs.ref, rs.allocs, rs.gcCycles)
	}
	return reps, nil
}

// serveRep is one serving repetition through cllm.Session.Serve. Checks
// that fail are tallied; only an error from Serve itself aborts the run.
func (b *bench) serveRep(sess *cllm.Session) (repStats, string, error) {
	start := time.Now()
	r, err := sess.Serve(b.spec.config(b.n))
	wall := time.Since(start).Seconds()
	if err != nil {
		return repStats{}, "", fmt.Errorf("serve: %w", err)
	}
	b.record("invariants", checkPublic(r, b.n, b.spec.serve.Topology != ""))
	return repStats{wall: wall, ops: b.n, tokens: b.totalTokens}, digest(r), nil
}

// sweepExperiments is the experiment list of one paper-sweep pass; a
// scaled-down run takes the first share of the registry in quick mode.
func (b *bench) sweepExperiments() (ids []string, quick bool) {
	n := len(cllm.Experiments())
	if b.scale < 1 {
		return experimentOrder(b.seed, max(1, int(float64(n)*b.scale+0.5))), true
	}
	return experimentOrder(b.seed, n), false
}

// sweepRep is one paper-sweep pass through cllm.RunExperiment. Its wall
// time sums the experiments; clock, when set, samples the reference kernel
// between them.
func (b *bench) sweepRep(clock *refClock) (repStats, string, error) {
	ids, quick := b.sweepExperiments()
	byID := map[string]*cllm.ExperimentReport{}
	wall := 0.0
	for _, id := range ids {
		start := time.Now()
		r, err := cllm.RunExperiment(id, quick, paperSeed)
		wall += time.Since(start).Seconds()
		if err != nil {
			return repStats{}, "", fmt.Errorf("experiment %s: %w", id, err)
		}
		byID[id] = r
		if clock != nil {
			clock.sample(1)
		}
	}
	var res sweepResult
	sort.Strings(ids)
	for _, id := range ids {
		res.Reports = append(res.Reports, byID[id])
		res.Rows += strings.Count(byID[id].Table, "\n")
	}
	b.record("shape checks", checkSweep(&res))
	return repStats{wall: wall, ops: len(ids), tokens: res.Rows}, digest(&res), nil
}

// childRep is the body of a fresh-process RSS probe: one repetition.
func (b *bench) childRep() (string, error) {
	if b.spec.serve == nil {
		_, d, err := b.sweepRep(nil)
		return d, err
	}
	sess, err := b.open()
	if err != nil {
		return "", err
	}
	_, d, err := b.serveRep(sess)
	if err == nil && b.failed > 0 {
		err = errors.New("repetition failed its checks")
	}
	return d, err
}

// rssProbe runs one repetition in a fresh process and returns the peak
// resident set (VmHWM) the child reports for itself, in MiB. The kernel's
// max-RSS figure for a child is no substitute: it also counts the parent's
// peak, which the child inherits until it execs. A probe that fails is
// tallied as a failed run and leaves no figure.
func (b *bench) rssProbe() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--rss-child", "--workload", b.spec.name,
		"--seed", strconv.FormatInt(b.seed, 10), "--scale", strconv.FormatFloat(b.scale, 'g', -1, 64))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = b.log
	if err := cmd.Run(); err != nil {
		err = fmt.Errorf("rss probe: %w", err)
		b.record("rss probe", err)
		return 0, err
	}
	var childDigest string
	hwm := -1
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if d, ok := strings.CutPrefix(sc.Text(), "digest "); ok {
			childDigest = d
		}
		if v, ok := strings.CutPrefix(sc.Text(), "vmhwm_kib "); ok {
			hwm, _ = strconv.Atoi(v)
		}
	}
	err = b.noteDigest(childDigest)
	if err == nil && hwm <= 0 {
		err = errors.New("child reported no VmHWM")
	}
	b.record("rss probe", err)
	return float64(hwm) / 1024, err
}

// vmHWM reads this process's peak resident set from /proc, in KiB.
func vmHWM() (int, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.Atoi(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")))
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// fingerprint describes the host and build every result was taken on.
func fingerprint() string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	commit := "none"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("fingerprint cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s tree=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, treeDigest("."))
}

// treeDigest hashes the Go sources and module files under root, so a
// result names the exact program it measured even without version control.
func treeDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

func mapReps(reps []repStats, f func(repStats) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// trimmedMean averages xs without its lowest and highest value (when it
// has at least three).
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) >= 3 {
		s = s[1 : len(s)-1]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
