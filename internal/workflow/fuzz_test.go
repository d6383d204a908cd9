package workflow

import (
	"math"
	"reflect"
	"testing"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/retry"
	"github.com/imcstudy/imcstudy/internal/sim"
)

// FuzzFaultPlan asserts the seed-determinism contract of FaultPlan:
// expanding the same plan twice — random crashes included — must yield
// byte-for-byte identical crash schedules, because every faulted golden
// in EXPERIMENTS.md assumes a plan can be reproduced from (Seed,
// RandomCrashes, Horizon) alone. It also pins the documented ordering
// property: expanded crashes come out sorted by injection time.
func FuzzFaultPlan(f *testing.F) {
	f.Add(int64(0), 0, 0.0, 0)
	f.Add(int64(1), 3, 10.0, 4)
	f.Add(int64(-7), 16, 0.5, 1)
	f.Add(int64(1<<40), 8, 1e6, 32)
	f.Fuzz(func(t *testing.T, seed int64, randomCrashes int, horizon float64, stagingNodes int) {
		if randomCrashes < 0 || randomCrashes > 256 || stagingNodes < 0 || stagingNodes > 4096 {
			t.Skip("out of modelled range")
		}
		if math.IsNaN(horizon) || math.IsInf(horizon, 0) {
			t.Skip("non-finite horizon never reaches expandCrashes via config validation")
		}
		fp := &FaultPlan{
			Seed:               seed,
			RandomCrashes:      randomCrashes,
			RandomCrashHorizon: sim.Time(horizon),
			Crashes: []NodeCrash{
				{Role: RoleSim, Index: 0, At: 2},
				{Role: RoleStaging, Index: stagingNodes / 2, At: 1},
			},
		}
		first := fp.expandCrashes(stagingNodes)
		second := fp.expandCrashes(stagingNodes)
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("same seed produced different plans:\n%v\n%v", first, second)
		}
		for i := 1; i < len(first); i++ {
			if first[i-1].At > first[i].At {
				t.Fatalf("expanded crashes not sorted by time at %d: %v", i, first)
			}
		}
		if randomCrashes > 0 && stagingNodes > 0 {
			if want := randomCrashes + len(fp.Crashes); len(first) != want {
				t.Fatalf("expanded %d crashes, want %d", len(first), want)
			}
		}
	})
}

// FuzzTransientFaultDeterminism extends the seed-determinism contract to
// the transient-fault windows and the retry policy: a tiny double run of
// the same configuration — probabilistic loss/busy/op-fault draws and
// backoff jitter included — must produce byte-identical metrics, because
// every draw stream is derived from (plan seed, window position) and
// jitter from the policy seed, never from global randomness.
func FuzzTransientFaultDeterminism(f *testing.F) {
	f.Add(int64(0), 0.0, 0.0, 0.0, int64(0), 0.0)
	f.Add(int64(7), 0.2, 0.2, 0.1, int64(11), 0.3)
	f.Add(int64(-3), 1.0, 0.0, 0.5, int64(1<<33), 0.99)
	f.Fuzz(func(t *testing.T, planSeed int64, lossP, busyP, opP float64, retrySeed int64, jitter float64) {
		for _, p := range []float64{lossP, busyP, opP, jitter} {
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Skip("out of domain")
			}
		}
		if jitter >= 1 {
			t.Skip("jitter domain is [0,1)")
		}
		cfg := Config{
			Machine:  hpc.Titan(),
			Method:   MethodDataSpacesNative,
			Workload: WorkloadSynthetic,
			SimProcs: 4,
			AnaProcs: 2,
			Steps:    1,
			Metrics:  true,
			Faults: &FaultPlan{
				Seed:        planSeed,
				MessageLoss: []TransientWindow{{Role: RoleStaging, Index: 0, At: 0, Duration: 1000, Prob: lossP}},
				ServerBusy:  []TransientWindow{{Role: RoleStaging, Index: 0, At: 0, Duration: 1000, Prob: busyP}},
				OpFaults:    []TransientWindow{{Role: RoleStaging, Index: 0, At: 0, Duration: 1000, Prob: opP}},
			},
			Retry: retry.Policy{
				MaxAttempts: 6, BaseBackoff: 0.001, MaxBackoff: 0.05,
				Jitter: jitter, Seed: retrySeed,
			},
		}
		run := func() []byte {
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			// Failed runs (retry budget exhausted under heavy loss) are
			// legitimate outcomes; their metrics must still reproduce.
			js, err := res.Metrics.EncodeJSON()
			if err != nil {
				t.Fatal(err)
			}
			return js
		}
		if a, b := run(), run(); !reflect.DeepEqual(a, b) {
			t.Fatal("same seeds produced different metrics under transient faults")
		}
	})
}
