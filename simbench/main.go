// Command simbench is the repository's benchmark: the host cost of
// simulating four fixed workloads with checked outputs. Run it from the
// repository root through run.sh, which builds it:
//
//	bash simbench/run.sh --workload ds-fanin-2k --seed 1 --seconds 24 --trace 0
//
// It prints, as its last line, one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 gives the end-to-end metrics
// from profiler-off timed passes; --trace 1 adds a runtime/pprof traced
// pass, a counting pass and two sim API probes and gives the per-layer
// metrics. README.md lists every metric.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// expected.json records, per workload and seed ("*" for workloads the
// seed does not change), each run's virtual time and metrics digest.
//
//go:embed expected.json
var expectedJSON []byte

type expectedRun struct {
	Label    string  `json:"label"`
	VirtualS float64 `json:"virtual_s"`
	SHA256   string  `json:"metrics_sha256"`
}

type expectedFile map[string]map[string][]expectedRun

func seedKey(w workload, seed int64) string {
	if !w.seeded {
		return "*"
	}
	return strconv.FormatInt(seed, 10)
}

// childTimeout bounds the whole benchmark process: every child is killed
// (and waited for) before 180 s, the longest one run may take.
const childTimeout = 170 * time.Second

func main() {
	var (
		wname   = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 24, "how long the timed passes run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		record  = flag.String("record", "", "run one pass and store its outputs as the expected values in this file")
		role    = flag.String("role", "", "child pass to run: setup, timed, traced, counting or probe (used by the benchmark itself)")
	)
	flag.Parse()
	w, err := workloadByName(*wname)
	if err != nil {
		fatal(err)
	}
	if *role != "" {
		if err := child(*role, w, *seed); err != nil {
			fatal(err)
		}
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	if *record != "" {
		if err := recordExpected(ctx, *record, w, *seed); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	rep, err := measure(ctx, w, *seed, *seconds, *trace == 1)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simbench:", err)
	os.Exit(2)
}

// child runs one pass in this process and prints its passOutput.
func child(role string, w workload, seed int64) error {
	runs := w.runs(seed)
	if err := validate(runs); err != nil {
		return err
	}
	var out passOutput
	var err error
	switch role {
	case "setup":
		t0, perr := strconv.ParseInt(os.Getenv("SIMBENCH_T0"), 10, 64)
		if perr != nil {
			return fmt.Errorf("setup pass: SIMBENCH_T0: %w", perr)
		}
		out.SetupS = time.Since(time.Unix(0, t0)).Seconds()
	case "timed", "traced", "counting":
		out, err = runPass(runs, role)
	case "probe":
		procs, writers := 0, 0
		for _, r := range runs {
			procs = max(procs, r.cfg.SimProcs+r.cfg.AnaProcs)
			writers = max(writers, r.cfg.SimProcs)
		}
		out, err = probePass(procs, writers)
	default:
		err = fmt.Errorf("unknown role %q", role)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// runChild runs one pass in a fresh process of this binary, so every
// pass starts from an empty heap and its peak RSS is its own.
func runChild(ctx context.Context, role string, w workload, seed int64) (passOutput, error) {
	self, err := os.Executable()
	if err != nil {
		return passOutput{}, err
	}
	cmd := exec.CommandContext(ctx, self, "-role", role, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), "SIMBENCH_T0="+strconv.FormatInt(time.Now().UnixNano(), 10))
	stdout, err := cmd.Output()
	if err != nil {
		return passOutput{}, fmt.Errorf("%s pass of %s: %w", role, w.name, err)
	}
	var out passOutput
	if err := json.Unmarshal(stdout, &out); err != nil {
		return passOutput{}, fmt.Errorf("%s pass of %s: %w", role, w.name, err)
	}
	return out, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupSamples is how many fresh processes time set-up per run; their
// median is setup_s. They run in equal batches before each of the first
// peakPasses timed passes, so that host drift over the run averages out.
// One sample costs a few milliseconds.
const setupSamples = 99

// peakPasses is how many timed passes peak_rss_mb takes its maximum
// over: the first ones, a fixed number that always runs, so that a
// change in wall time, which changes how many passes fit in --seconds,
// does not change the sample the peak is taken from.
const peakPasses = 3

// measure runs the workload's passes and checks their outputs. With
// traced false it times profiler-off passes while fewer than --seconds
// have gone by, and at least peakPasses: medians of fewer passes are
// not steady on a shared host, and two passes are needed to check an
// unrecorded seed by agreement. With traced true it times passes for a
// third of --seconds, then adds the traced, counting and probe passes.
func measure(ctx context.Context, w workload, seed int64, seconds float64, traced bool) (report, error) {
	budget, minPasses := seconds, peakPasses
	if traced {
		budget, minPasses = seconds/3, 1
	}
	var setups []float64
	var timed []passOutput
	for start := time.Now(); len(timed) < minPasses || time.Since(start).Seconds() < budget; {
		for i := 0; !traced && len(timed) < peakPasses && i < setupSamples/peakPasses; i++ {
			out, err := runChild(ctx, "setup", w, seed)
			if err != nil {
				return report{}, err
			}
			setups = append(setups, out.SetupS)
		}
		out, err := runChild(ctx, "timed", w, seed)
		if err != nil {
			return report{}, err
		}
		timed = append(timed, out)
	}

	passes := append([]passOutput(nil), timed...)
	var tracedOut, counting, probe passOutput
	if traced {
		var err error
		if tracedOut, err = runChild(ctx, "traced", w, seed); err != nil {
			return report{}, err
		}
		if counting, err = runChild(ctx, "counting", w, seed); err != nil {
			return report{}, err
		}
		if probe, err = runChild(ctx, "probe", w, seed); err != nil {
			return report{}, err
		}
		passes = append(passes, tracedOut, counting)
	}

	var exp expectedFile
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return report{}, fmt.Errorf("expected.json: %w", err)
	}
	reference, recorded := expectedRuns(exp, w, seed, timed[0])
	attempted, failed := 0, 0
	for _, p := range passes {
		a, f := checkRuns(p.Runs, reference)
		attempted += a
		failed += f
	}

	rep := report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { rep.Metrics[name] = metric{Value: v, Unit: unit} }
	wall := medianOf(timed, func(p passOutput) float64 { return p.WallS })
	if !traced {
		put("wall_s", wall, "s")
		put("cpu_s", medianOf(timed, func(p passOutput) float64 { return p.CPUS }), "s")
		// The highest peak of the first peakPasses passes: a pass's peak
		// depends on where GC cycles fall relative to its largest
		// allocations, which makes it bimodal on some workloads; the
		// maximum over a few passes is steadier than their median.
		peak := 0.0
		for _, p := range timed[:peakPasses] {
			peak = max(peak, p.PeakRSSMB)
		}
		put("peak_rss_mb", peak, "MB")
		put("setup_s", median(setups), "s")
	} else {
		layerMetrics(put, timed, tracedOut, counting, probe, wall)
		put("fail_frac", float64(failed)/float64(attempted), "ratio")
	}
	printDetails(w, seed, recorded, timed, len(setups))
	return rep, nil
}

// expectedRuns returns the reference outputs: the recorded values when
// expected.json has this workload and seed, otherwise the first timed
// pass, so every other pass must agree with it.
func expectedRuns(exp expectedFile, w workload, seed int64, first passOutput) ([]expectedRun, bool) {
	if runs, ok := exp[w.name][seedKey(w, seed)]; ok {
		return runs, true
	}
	return toExpected(first.Runs), false
}

func toExpected(runs []runOutput) []expectedRun {
	out := make([]expectedRun, len(runs))
	for i, r := range runs {
		out[i] = expectedRun{Label: r.Label, VirtualS: r.VirtualS, SHA256: r.SHA256}
	}
	return out
}

// checkRuns counts a pass's runs and those that errored, failed, or whose
// virtual time or metrics digest differ from the reference. A run the
// reference lacks fails too.
func checkRuns(runs []runOutput, reference []expectedRun) (attempted, failed int) {
	attempted = max(len(runs), len(reference))
	for i := 0; i < attempted; i++ {
		if i >= len(runs) || i >= len(reference) {
			failed++
			continue
		}
		r, e := runs[i], reference[i]
		if r.Error != "" || r.Label != e.Label || r.VirtualS != e.VirtualS || r.SHA256 != e.SHA256 {
			fmt.Fprintf(os.Stderr, "simbench: %s: got virtual_s=%v sha256=%s error=%q, want virtual_s=%v sha256=%s\n",
				e.Label, r.VirtualS, r.SHA256, r.Error, e.VirtualS, e.SHA256)
			failed++
		}
	}
	return attempted, failed
}

// layerMetrics derives the per-layer metrics from the traced, counting
// and probe passes; ratios to wall time use the timed passes' median.
func layerMetrics(put func(string, float64, string), timed []passOutput, tr, counting, probe passOutput, wall float64) {
	for _, l := range layers {
		ns := tr.LayerNs[l]
		put(l+".cpu_s", float64(ns)/1e9, "s")
		put(l+".cpu_share", ratio(float64(ns), float64(tr.ProfileNs)), "ratio")
	}
	put("go-runtime.leaf_share", ratio(float64(tr.RuntimeLeafNs), float64(tr.ProfileNs)), "ratio")
	put("go-runtime.gc_cpu_s", medianOf(timed, func(p passOutput) float64 { return p.Runtime.GCCPUS }), "s")
	put("go-runtime.alloc_mb", medianOf(timed, func(p passOutput) float64 { return p.Runtime.AllocBytes })/1e6, "MB")
	put("go-runtime.alloc_objects", medianOf(timed, func(p passOutput) float64 { return p.Runtime.AllocObjects }), "count")
	put("go-runtime.gc_cycles", medianOf(timed, func(p passOutput) float64 { return p.Runtime.GCCycles }), "count")

	var c runOutput
	ops := map[string]float64{}
	for _, r := range counting.Runs {
		c.Events += r.Events
		c.Callbacks += r.Callbacks
		c.PoolHits += r.PoolHits
		c.PoolMisses += r.PoolMisses
		c.TransportMsgs += r.TransportMsgs
		c.TransportBytes += r.TransportBytes
		c.StagingPuts += r.StagingPuts
		c.Retries += r.Retries
		c.Giveups += r.Giveups
		c.RecoveredBytes += r.RecoveredBytes
		ops[r.MethodLayer] += r.Ops
	}
	cpu := func(l string) float64 { return float64(tr.LayerNs[l]) / 1e9 }
	put("sim.events", float64(c.Events), "count")
	put("sim.callbacks", float64(c.Callbacks), "count")
	put("sim.resumes", float64(c.Events-c.Callbacks), "count")
	put("sim.pool_hit_rate", ratio(float64(c.PoolHits), float64(c.PoolHits+c.PoolMisses)), "ratio")
	put("sim.events_per_wall_s", ratio(float64(c.Events), wall), "1/s")
	put("sim.handoff_ns", probe.HandoffNs, "ns")
	put("sim.net.flow_us", probe.FlowUs, "us")
	put("transport.msgs", c.TransportMsgs, "count")
	put("transport.bytes", c.TransportBytes, "B")
	put("transport.cpu_us_per_msg", ratio(cpu("transport")*1e6, c.TransportMsgs), "us")
	put("staging.put_objects", c.StagingPuts, "count")
	put("staging.cpu_us_per_put", ratio(cpu("staging")*1e6, c.StagingPuts), "us")
	for _, m := range []string{"dataspaces", "dimes", "flexpath", "decaf", "mpiio"} {
		put(m+".cpu_us_per_op", ratio(cpu(m)*1e6, ops[m]), "us")
	}
	put("telemetry.encode_s", medianOf(timed, func(p passOutput) float64 { return p.EncodeS }), "s")
	put("telemetry.json_mb", float64(timed[0].JSONBytes)/1e6, "MB")
	put("retry.retries", c.Retries, "count")
	put("retry.giveups", c.Giveups, "count")
	put("resilience.recovered_mb", float64(c.RecoveredBytes)/1e6, "MB")
	put("prof.wall_ratio", ratio(counting.WallS, wall), "ratio")
	put("trace.wall_ratio", ratio(tr.WallS, wall), "ratio")
	put("trace.sampled_cpu_s", float64(tr.ProfileNs)/1e9, "s")
	put("trace.sampled_vs_rusage", ratio(float64(tr.ProfileNs)/1e9, tr.ProfiledCPUS), "ratio")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(ps []passOutput, f func(passOutput) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

// hostInfo is printed with every result: numbers from different hosts,
// Go versions or commits are not comparable.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"`
}

func host() hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     os.Getenv("SIMBENCH_COMMIT"),
		Dirty:      os.Getenv("SIMBENCH_DIRTY"),
	}
	if cpuinfo, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(cpuinfo), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	if h.Dirty == "" {
		h.Dirty = "unknown"
	}
	return h
}

// printDetails prints the run's context, and the per-pass numbers behind
// the medians, on the line before the result.
func printDetails(w workload, seed int64, recorded bool, timed []passOutput, setupSamples int) {
	type passNumbers struct {
		WallS     float64 `json:"wall_s"`
		CPUS      float64 `json:"cpu_s"`
		PeakRSSMB float64 `json:"peak_rss_mb"`
	}
	passes := make([]passNumbers, len(timed))
	for i, p := range timed {
		passes[i] = passNumbers{p.WallS, p.CPUS, p.PeakRSSMB}
	}
	checked := "first timed pass"
	if recorded {
		checked = "expected.json"
	}
	line, _ := json.Marshal(map[string]any{
		"workload":        w.name,
		"seed":            seed,
		"host":            host(),
		"timed_passes":    passes,
		"setup_samples":   setupSamples,
		"checked_against": checked,
	})
	fmt.Println(string(line))
}

// recordExpected runs one timed pass and stores its outputs as the
// expected values for the workload and seed in path.
func recordExpected(ctx context.Context, path string, w workload, seed int64) error {
	out, err := runChild(ctx, "timed", w, seed)
	if err != nil {
		return err
	}
	exp := expectedFile{}
	if buf, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(buf, &exp); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for _, r := range out.Runs {
		if r.Error != "" {
			return fmt.Errorf("%s: %s", r.Label, r.Error)
		}
	}
	if exp[w.name] == nil {
		exp[w.name] = map[string][]expectedRun{}
	}
	exp[w.name][seedKey(w, seed)] = toExpected(out.Runs)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(exp); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
