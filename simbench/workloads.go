package main

import (
	"fmt"

	"github.com/imcstudy/imcstudy"
)

// A workload is a fixed list of simulations run one after another from
// one process: a closed loop with one client, since the engine runs one
// simulated process at a time by design.
type workload struct {
	name string
	// seeded workloads take their fault plan and retry jitter from the
	// benchmark seed; the others are the same for every seed.
	seeded bool
	runs   func(seed int64) []benchRun
}

// benchRun is one imcstudy.Run of a workload, labelled so its outputs
// can be matched against the recorded expected values.
type benchRun struct {
	label string
	cfg   imcstudy.RunConfig
}

func synthetic(m imcstudy.Method, sim, ana, steps int) imcstudy.RunConfig {
	return imcstudy.RunConfig{
		Machine:  imcstudy.Titan(),
		Method:   m,
		Workload: imcstudy.WorkloadSynthetic,
		SimProcs: sim,
		AnaProcs: ana,
		Steps:    steps,
		Metrics:  true,
	}
}

func label(cfg imcstudy.RunConfig) string {
	return fmt.Sprintf("%s %v (%d,%d)", cfg.Machine.Name, cfg.Method, cfg.SimProcs, cfg.AnaProcs)
}

func runsOf(cfgs ...imcstudy.RunConfig) []benchRun {
	out := make([]benchRun, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = benchRun{label: label(cfg), cfg: cfg}
	}
	return out
}

// Each workload loads a different layer; README.md gives the reasons.
var workloads = []workload{
	{
		// The paper's N-to-1 pathology (mismatch layout) at a size that
		// runs in seconds: engine hand-off, transport, the staging index
		// and telemetry dominate.
		name: "ds-fanin-2k",
		runs: func(int64) []benchRun {
			return runsOf(synthetic(imcstudy.MethodDataSpacesNative, 1364, 682, 2))
		},
	},
	{
		// The "scalable" methods at 10k ranks: few events, many
		// processes, quadratic metadata matching in dimes and flexpath.
		// Both cells are in BENCH_PR7.json.
		name: "scalable-10k",
		runs: func(int64) []benchRun {
			return runsOf(
				synthetic(imcstudy.MethodDIMESNative, 6826, 3414, 2),
				synthetic(imcstudy.MethodFlexpath, 6826, 3414, 2),
			)
		},
	},
	{
		// The quick Figure 2a grid people run to reproduce the paper: the
		// sim.net-heavy workload, and the only one on Decaf, MPI-IO and
		// Lustre.
		name: "fig2a-sweep",
		runs: func(int64) []benchRun {
			var cfgs []imcstudy.RunConfig
			for _, machine := range imcstudy.Machines() {
				for _, m := range []imcstudy.Method{
					imcstudy.MethodSimOnly, imcstudy.MethodFlexpath,
					imcstudy.MethodDataSpacesNative, imcstudy.MethodDIMESNative,
					imcstudy.MethodDecaf, imcstudy.MethodMPIIO,
				} {
					for _, sc := range [][2]int{{32, 16}, {128, 64}, {512, 256}} {
						cfgs = append(cfgs, imcstudy.RunConfig{
							Machine:  machine,
							Method:   m,
							Workload: imcstudy.WorkloadLAMMPS,
							SimProcs: sc[0],
							AnaProcs: sc[1],
							Steps:    3,
							Metrics:  true,
						})
					}
				}
			}
			return runsOf(cfgs...)
		},
	},
	{
		// The fault-tolerant DataSpaces path: replicated puts, failover
		// reads, re-replication after a crash and retried sends. The only
		// workload that runs retry and the failure detector.
		name:   "ds-resilient-1k",
		seeded: true,
		runs: func(seed int64) []benchRun {
			cfg := synthetic(imcstudy.MethodDataSpacesNative, 682, 342, 4)
			cfg.Replication = 2
			cfg.FailStagingNodeAt = 12
			cfg.Faults = &imcstudy.FaultPlan{
				Seed: seed,
				MessageLoss: []imcstudy.TransientWindow{{
					Role: imcstudy.RoleStaging, Index: 0, At: 0, Duration: 1e6, Prob: 0.05,
				}},
			}
			// The chaos campaign's retry stance.
			cfg.Retry = imcstudy.RetryPolicy{
				MaxAttempts: 8,
				BaseBackoff: 0.001,
				Multiplier:  2,
				MaxBackoff:  0.05,
				Jitter:      0.3,
				Seed:        seed ^ 0x5ca1ab1e,
			}
			return runsOf(cfg)
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// validate checks every configuration the way a user's program would
// before running it, so set-up time includes it.
func validate(runs []benchRun) error {
	for _, r := range runs {
		if err := r.cfg.Retry.Validate(); err != nil {
			return fmt.Errorf("%s: %w", r.label, err)
		}
		if r.cfg.Faults != nil {
			if err := r.cfg.Faults.Validate(imcstudy.FaultPools{}); err != nil {
				return fmt.Errorf("%s: %w", r.label, err)
			}
		}
	}
	return nil
}
