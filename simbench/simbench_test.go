package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/imcstudy/imcstudy"
)

// The scalable-10k expected values are the committed BENCH_PR7.json
// cells, so the benchmark checks the same outputs the scale suite gates.
func TestScalableDigestsMatchBenchPR7(t *testing.T) {
	buf, err := os.ReadFile("../BENCH_PR7.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Results []struct {
			Method   string  `json:"method"`
			Sim      int     `json:"sim"`
			Ana      int     `json:"ana"`
			VirtualS float64 `json:"virtual_s"`
			SHA256   string  `json:"metrics_sha256"`
		} `json:"results"`
	}
	if err := json.Unmarshal(buf, &golden); err != nil {
		t.Fatal(err)
	}
	var exp expectedFile
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		t.Fatal(err)
	}
	w, err := workloadByName("scalable-10k")
	if err != nil {
		t.Fatal(err)
	}
	runs := w.runs(0)
	recorded := exp[w.name]["*"]
	if len(recorded) != len(runs) {
		t.Fatalf("expected.json has %d scalable-10k runs, the workload has %d", len(recorded), len(runs))
	}
	for i, r := range runs {
		found := false
		for _, g := range golden.Results {
			if g.Method != r.cfg.Method.String() || g.Sim != r.cfg.SimProcs || g.Ana != r.cfg.AnaProcs {
				continue
			}
			found = true
			if recorded[i].Label != r.label || recorded[i].VirtualS != g.VirtualS || recorded[i].SHA256 != g.SHA256 {
				t.Errorf("%s: expected.json has (%v, %s), BENCH_PR7.json has (%v, %s)",
					r.label, recorded[i].VirtualS, recorded[i].SHA256, g.VirtualS, g.SHA256)
			}
		}
		if !found {
			t.Errorf("%s: no BENCH_PR7.json cell", r.label)
		}
	}
}

// Every package of the module maps to exactly one known layer, and the
// map names no package that is gone.
func TestEveryPackageHasOneLayer(t *testing.T) {
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	pkgs := map[string]bool{}
	err := filepath.WalkDir("..", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != ".." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			rel, err := filepath.Rel("..", filepath.Dir(path))
			if err != nil {
				return err
			}
			if rel == "." {
				rel = ""
			}
			pkgs[filepath.ToSlash(rel)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg := range pkgs {
		l, ok := packageLayer[pkg]
		switch {
		case !ok:
			t.Errorf("package %q has no layer in packageLayer", pkg)
		case !known[l]:
			t.Errorf("package %q maps to unknown layer %q", pkg, l)
		}
	}
	for pkg := range packageLayer {
		if !pkgs[pkg] {
			t.Errorf("packageLayer names %q, which is not a package of the module", pkg)
		}
	}
}

func TestAttributionRules(t *testing.T) {
	const sim = modulePath + "/internal/sim"
	cases := []struct {
		name   string
		frames []frame
		want   string
	}{
		{"channel receive under a process yield", []frame{
			{"runtime.chanrecv", "chan.go"}, {sim + ".(*Proc).yield", "sim.go"}, {sim + ".(*Engine).Run", "sim.go"},
		}, "sim"},
		{"allocation under the staging index", []frame{
			{"runtime.mallocgc", "malloc.go"}, {modulePath + "/internal/staging.(*blockSet).add", "index.go"},
		}, "staging"},
		{"solver file", []frame{{sim + ".(*Net).flush", "/src/internal/sim/net.go"}}, "sim.net"},
		{"solver sort closure", []frame{
			{"sort.insertionSort_func", "zsortfunc.go"}, {sim + ".(*Net).assignRatesIncremental.func1", "net.go"},
		}, "sim.net"},
		{"root facade", []frame{{modulePath + ".Run", "imcstudy.go"}}, "workflow"},
		{"generic instantiation", []frame{{modulePath + "/internal/metrics.sortedKeys[go.shape.float64]", "metrics.go"}}, "telemetry"},
		{"benchmark frame", []frame{{"crypto/sha256.block", "sha256.go"}, {"main.runPass", "pass.go"}}, "harness"},
		{"no module frame", []frame{{"runtime.gcBgMarkWorker", "mgc.go"}}, "go-runtime"},
	}
	for _, c := range cases {
		split, err := foldLayers(&cpuProfile{samples: []cpuSample{{ns: 10, frames: c.frames}}, totalNs: 10})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if split.ns[c.want] != 10 {
			t.Errorf("%s: charged %v, want %s", c.name, split.ns, c.want)
		}
	}
	_, err := foldLayers(&cpuProfile{samples: []cpuSample{{ns: 1, frames: []frame{{modulePath + "/internal/newpkg.F", "f.go"}}}}})
	if err == nil {
		t.Error("a frame from an unmapped package was charged without an error")
	}
}

// sampledVsRusage bounds trace.sampled_vs_rusage: the CPU profile's
// sample total over the process's rusage CPU in the profiled interval.
// The profile misses only CPU between ticks of its 100 Hz per-thread
// timers and the profiler's own start-up, so it reads a little under 1.
const minSampledVsRusage, maxSampledVsRusage = 0.8, 1.05

// On a small configuration, the traced pass's layers sum to the
// profile's total, the profile agrees with rusage, and the traced and
// counting passes reproduce the timed pass's outputs.
func TestTracedAndCountingPassesOnSmallConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three simulations")
	}
	runs := runsOf(synthetic(imcstudy.MethodDataSpacesNative, 682, 342, 2))
	timed, err := runPass(runs, "timed")
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runPass(runs, "traced")
	if err != nil {
		t.Fatal(err)
	}
	counting, err := runPass(runs, "counting")
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := expectedRuns(nil, workload{}, 0, timed)
	for _, p := range []passOutput{timed, traced, counting} {
		if _, failed := checkRuns(p.Runs, ref); failed != 0 {
			t.Errorf("%d runs differ from the timed pass", failed)
		}
	}

	var sum int64
	names := make([]string, 0, len(traced.LayerNs))
	for l, ns := range traced.LayerNs {
		sum += ns
		names = append(names, l)
	}
	sort.Strings(names)
	if sum != traced.ProfileNs || sum == 0 {
		t.Errorf("layers %v sum to %d ns, profile total is %d ns", names, sum, traced.ProfileNs)
	}
	r := float64(traced.ProfileNs) / 1e9 / traced.ProfiledCPUS
	if r < minSampledVsRusage || r > maxSampledVsRusage {
		t.Errorf("sampled/rusage CPU = %.3f, want within [%v, %v]", r, minSampledVsRusage, maxSampledVsRusage)
	}
	if c := counting.Runs[0]; c.Events == 0 || c.Callbacks == 0 || c.Ops == 0 || c.TransportMsgs == 0 || c.StagingPuts == 0 {
		t.Errorf("counting pass read no counts: %+v", c)
	}
}
