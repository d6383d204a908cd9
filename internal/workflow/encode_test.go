package workflow

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestMetricsEncodersMatchOracle runs real configurations — the larger
// determinism run and the faulted golden run — and requires the
// streaming EncodeJSON to write exactly what encoding/json writes for
// the registry's Snapshot. It covers the metric names and series shapes
// the simulator produces, which the metrics package's generated
// registries may not reach.
func TestMetricsEncodersMatchOracle(t *testing.T) {
	for _, run := range []struct {
		name string
		cfg  Config
	}{
		{"scale determinism", scaleDeterminismBase()},
		{"faulted golden", faultedGoldenConfig()},
	} {
		t.Run(run.name, func(t *testing.T) {
			res, err := Run(run.cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Failed {
				t.Fatalf("workflow failed: %v", res.FailErr)
			}
			got, err := res.Metrics.EncodeJSON()
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.MarshalIndent(res.Metrics.Snapshot(), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			if !bytes.Equal(got, want) {
				n := 0
				for n < len(got) && n < len(want) && got[n] == want[n] {
					n++
				}
				t.Fatalf("EncodeJSON (%d bytes) differs from the MarshalIndent oracle (%d bytes) at byte %d", len(got), len(want), n)
			}
			if len(res.Metrics.SeriesNames()) == 0 {
				t.Fatal("run recorded no series; the oracle covers nothing")
			}
		})
	}
}
