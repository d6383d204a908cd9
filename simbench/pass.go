package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"github.com/imcstudy/imcstudy"
)

// passOutput is what one child process reports about its pass.
type passOutput struct {
	SetupS    float64     `json:"setup_s,omitempty"`
	WallS     float64     `json:"wall_s"`
	CPUS      float64     `json:"cpu_s"`
	PeakRSSMB float64     `json:"peak_rss_mb"`
	EncodeS   float64     `json:"encode_s"`
	JSONBytes int64       `json:"json_bytes"`
	Runtime   runtimeUse  `json:"runtime"`
	Runs      []runOutput `json:"runs,omitempty"`

	// Traced pass: the CPU profile folded into layers, and the rusage CPU
	// over the profiled interval.
	LayerNs       map[string]int64 `json:"layer_ns,omitempty"`
	ProfileNs     int64            `json:"profile_ns,omitempty"`
	RuntimeLeafNs int64            `json:"runtime_leaf_ns,omitempty"`
	ProfiledCPUS  float64          `json:"profiled_cpu_s,omitempty"`

	// Probe pass.
	HandoffNs float64 `json:"handoff_ns,omitempty"`
	FlowUs    float64 `json:"flow_us,omitempty"`
}

// runOutput is one run's checked outputs, plus the counts the counting
// pass reads from its profile and telemetry.
type runOutput struct {
	Label    string  `json:"label"`
	VirtualS float64 `json:"virtual_s"`
	SHA256   string  `json:"metrics_sha256"`
	Error    string  `json:"error,omitempty"`

	MethodLayer    string  `json:"method_layer,omitempty"`
	Events         int64   `json:"events,omitempty"`
	Callbacks      int64   `json:"callbacks,omitempty"`
	PoolHits       int64   `json:"pool_hits,omitempty"`
	PoolMisses     int64   `json:"pool_misses,omitempty"`
	Ops            float64 `json:"ops,omitempty"`
	TransportMsgs  float64 `json:"transport_msgs,omitempty"`
	TransportBytes float64 `json:"transport_bytes,omitempty"`
	StagingPuts    float64 `json:"staging_puts,omitempty"`
	Retries        float64 `json:"retries,omitempty"`
	Giveups        float64 `json:"giveups,omitempty"`
	RecoveredBytes int64   `json:"recovered_bytes,omitempty"`
}

// runtimeUse is a runtime/metrics delta over a pass.
type runtimeUse struct {
	GCCPUS       float64 `json:"gc_cpu_s"`
	AllocBytes   float64 `json:"alloc_bytes"`
	AllocObjects float64 `json:"alloc_objects"`
	GCCycles     float64 `json:"gc_cycles"`
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeUse {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeUse{GCCPUS: v(0), AllocBytes: v(1), AllocObjects: v(2), GCCycles: v(3)}
}

func (a runtimeUse) sub(b runtimeUse) runtimeUse {
	return runtimeUse{
		GCCPUS:       a.GCCPUS - b.GCCPUS,
		AllocBytes:   a.AllocBytes - b.AllocBytes,
		AllocObjects: a.AllocObjects - b.AllocObjects,
		GCCycles:     a.GCCycles - b.GCCycles,
	}
}

// rusage returns this process's resource usage. getrusage fails only
// for an invalid argument, which would be a bug here.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB returns the process's peak resident set size in MB (1e6 bytes).
func peakRSSMB() float64 {
	return float64(rusage().Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func methodLayer(m imcstudy.Method) string {
	switch m {
	case imcstudy.MethodDataSpacesNative, imcstudy.MethodDataSpacesADIOS:
		return "dataspaces"
	case imcstudy.MethodDIMESNative, imcstudy.MethodDIMESADIOS:
		return "dimes"
	case imcstudy.MethodFlexpath:
		return "flexpath"
	case imcstudy.MethodDecaf:
		return "decaf"
	case imcstudy.MethodMPIIO:
		return "mpiio"
	}
	return ""
}

// runPass runs every simulation of the workload once in this process.
// Wall and CPU time cover each imcstudy.Run plus the EncodeJSON of its
// metrics; the digest of that JSON is taken outside the timed intervals.
// mode "traced" wraps the pass in a runtime/pprof CPU profile; mode
// "counting" turns on the simulator's own profiler to read its event
// counts.
func runPass(runs []benchRun, mode string) (passOutput, error) {
	var out passOutput
	var profile bytes.Buffer
	profiledCPU0 := cpuSeconds()
	if mode == "traced" {
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return out, fmt.Errorf("traced pass: %w", err)
		}
	}
	rt0 := readRuntime()
	for _, r := range runs {
		cfg := r.cfg
		cfg.Profile = mode == "counting"
		ro := runOutput{Label: r.label, MethodLayer: methodLayer(cfg.Method)}

		cpu0, start := cpuSeconds(), time.Now()
		res, err := imcstudy.Run(cfg)
		var js []byte
		if err == nil {
			encStart := time.Now()
			js, err = res.Metrics.EncodeJSON()
			out.EncodeS += time.Since(encStart).Seconds()
		}
		out.WallS += time.Since(start).Seconds()
		out.CPUS += cpuSeconds() - cpu0

		switch {
		case err != nil:
			ro.Error = err.Error()
		case res.Failed:
			ro.Error = fmt.Sprintf("run failed: %v", res.FailErr)
		default:
			sum := sha256.Sum256(js)
			ro.VirtualS = float64(res.EndToEnd)
			ro.SHA256 = hex.EncodeToString(sum[:])
			out.JSONBytes += int64(len(js))
			if mode == "counting" {
				if err := countRun(&ro, res, js); err != nil {
					return out, err
				}
			}
		}
		out.Runs = append(out.Runs, ro)
	}
	out.Runtime = readRuntime().sub(rt0)
	if mode == "traced" {
		pprof.StopCPUProfile()
		out.ProfiledCPUS = cpuSeconds() - profiledCPU0
		p, err := decodeCPUProfile(profile.Bytes())
		if err != nil {
			return out, err
		}
		split, err := foldLayers(p)
		if err != nil {
			return out, err
		}
		out.LayerNs, out.ProfileNs, out.RuntimeLeafNs = split.ns, split.totalNs, split.runtimeNs
	}
	out.PeakRSSMB = peakRSSMB()
	return out, nil
}

// countRun fills the counting pass's per-run counts from the simulator
// profile's deterministic section and the run's telemetry counters.
func countRun(ro *runOutput, res imcstudy.RunResult, js []byte) error {
	if res.Profile == nil {
		return fmt.Errorf("%s: counting pass returned no profile", ro.Label)
	}
	d := res.Profile.Deterministic
	ro.Events, ro.Callbacks = d.Events, d.Callbacks
	ro.PoolHits, ro.PoolMisses = d.PoolHits, d.PoolMisses
	ro.RecoveredBytes = res.RecoveredBytes

	var snap struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.Unmarshal(js, &snap); err != nil {
		return fmt.Errorf("%s: decoding metrics: %w", ro.Label, err)
	}
	for name, v := range snap.Counters {
		parts := strings.Split(name, "/")
		switch {
		case name == "activity/put/count" || name == "activity/get/count":
			ro.Ops += v
		case name == "staging/put/objects":
			ro.StagingPuts += v
		case len(parts) == 3 && parts[0] == "transport" && parts[1] != "timeouts":
			switch parts[2] {
			case "msgs":
				ro.TransportMsgs += v
			case "bytes":
				ro.TransportBytes += v
			}
		case len(parts) == 3 && parts[0] == "retry":
			switch parts[2] {
			case "retries":
				ro.Retries += v
			case "giveups":
				ro.Giveups += v
			}
		}
	}
	return nil
}

// probePass runs the two sim API probes, each three times, and keeps the
// median.
func probePass(procs, writers int) (passOutput, error) {
	var out passOutput
	var hs, fs []float64
	for i := 0; i < 3; i++ {
		h, err := handoffProbe(procs)
		if err != nil {
			return out, err
		}
		f, err := flowProbe(writers)
		if err != nil {
			return out, err
		}
		hs, fs = append(hs, h), append(fs, f)
	}
	out.HandoffNs, out.FlowUs = median(hs), median(fs)
	return out, nil
}
