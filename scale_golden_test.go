package imcstudy_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"github.com/imcstudy/imcstudy"
)

// TestScalableGolden10k keeps the 10k-rank scale determinism of the two
// scalable methods in the default suite: the DIMES/native and Flexpath
// cells at (6826, 3414) must reproduce their BENCH_PR7.json virtual time
// and metrics digest. It runs without the self-profiler, which observes
// and never schedules (TestProfilerLeavesMetricsUnchanged), so the
// digests the profiled suite recorded still apply. The full matrix
// stays behind `make bench`.
func TestScalableGolden10k(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("10k-rank cells: skipped under -short and -race")
	}
	raw, err := os.ReadFile(benchGolden)
	if err != nil {
		t.Fatalf("reading %s: %v", benchGolden, err)
	}
	var golden benchFile
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("parsing %s: %v", benchGolden, err)
	}
	const sim, ana = 6826, 3414
	for _, method := range []imcstudy.Method{imcstudy.MethodDIMESNative, imcstudy.MethodFlexpath} {
		var want *benchCell
		for i := range golden.Results {
			c := &golden.Results[i]
			if c.Method == method.String() && c.Sim == sim && c.Ana == ana {
				want = c
			}
		}
		if want == nil {
			t.Fatalf("%s has no %s (%d,%d) cell", benchGolden, method, sim, ana)
		}
		res, err := imcstudy.Run(imcstudy.RunConfig{
			Machine:  imcstudy.Titan(),
			Method:   method,
			Workload: imcstudy.WorkloadSynthetic,
			SimProcs: sim,
			AnaProcs: ana,
			Steps:    golden.Steps,
			Metrics:  true,
		})
		if err != nil {
			t.Fatalf("%s (%d,%d): %v", method, sim, ana, err)
		}
		if res.Failed {
			t.Fatalf("%s (%d,%d): run failed: %v", method, sim, ana, res.FailErr)
		}
		js, err := res.Metrics.EncodeJSON()
		if err != nil {
			t.Fatalf("%s (%d,%d): encoding metrics: %v", method, sim, ana, err)
		}
		if got := float64(res.EndToEnd); got != want.VirtualS {
			t.Errorf("%s (%d,%d): virtual time %.9f, golden %.9f", method, sim, ana, got, want.VirtualS)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(js)); got != want.MetricsSHA256 {
			t.Errorf("%s (%d,%d): metrics digest\ngot    %s\ngolden %s", method, sim, ana, got, want.MetricsSHA256)
		}
	}
}
