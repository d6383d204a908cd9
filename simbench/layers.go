package main

import (
	"fmt"
	"path"
	"strings"
)

const modulePath = "github.com/imcstudy/imcstudy"

// layers lists the layers in report order. Every package of the module
// belongs to exactly one (packageLayer); go-runtime takes samples with
// no module frame.
var layers = []string{
	"sim", "sim.net", "transport", "staging",
	"dataspaces", "dimes", "flexpath", "decaf", "mpiio",
	"workflow", "telemetry", "retry", "go-runtime", "harness",
}

// packageLayer maps each package of the module, by its path relative to
// the module root, to its layer. internal/sim is split by file in
// layerOf. Commands, examples and the lint suite never run under the
// benchmark; they are drivers, like the benchmark itself. A package
// missing here fails TestEveryPackageHasOneLayer.
var packageLayer = map[string]string{
	"internal/sim": "sim",

	"internal/transport": "transport",
	"internal/rdma":      "transport",

	"internal/staging": "staging",
	"internal/sfc":     "staging",
	"internal/ndarray": "staging",

	"internal/dataspaces": "dataspaces",
	"internal/dimes":      "dimes",
	"internal/flexpath":   "flexpath",
	"internal/decaf":      "decaf",
	"internal/mpiio":      "mpiio",
	"internal/lustre":     "mpiio",

	"":                   "workflow",
	"internal/workflow":  "workflow",
	"internal/hpc":       "workflow",
	"internal/mpi":       "workflow",
	"internal/synthetic": "workflow",
	"internal/lammps":    "workflow",
	"internal/laplace":   "workflow",
	"internal/adios":     "workflow",
	"internal/bp":        "workflow",
	"internal/ffs":       "workflow",
	"internal/gpu":       "workflow",
	"internal/core":      "workflow",
	"internal/chaos":     "workflow",

	"internal/metrics": "telemetry",
	"internal/memprof": "telemetry",
	"internal/trace":   "telemetry",
	"internal/prof":    "telemetry",

	"internal/retry": "retry",

	"simbench":                   "harness",
	"cmd/imcbench":               "harness",
	"cmd/imclint":                "harness",
	"cmd/imcprof":                "harness",
	"cmd/imcreport":              "harness",
	"cmd/imcsynth":               "harness",
	"cmd/imctrace":               "harness",
	"cmd/locreport":              "harness",
	"cmd/rdmaprobe":              "harness",
	"examples/gpu-staging":       "harness",
	"examples/lammps-msd":        "harness",
	"examples/laplace-mta":       "harness",
	"examples/layout-tuning":     "harness",
	"examples/quickstart":        "harness",
	"internal/lint":              "harness",
	"internal/lint/analysis":     "harness",
	"internal/lint/analysistest": "harness",
	"internal/lint/load":         "harness",
}

// framePackage returns the module-relative package of a pprof function
// name and whether the function belongs to the module. The benchmark's
// own main package appears as "main".
func framePackage(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return "simbench", true
	}
	rest, ok := strings.CutPrefix(fn, modulePath)
	if !ok || rest == "" || (rest[0] != '.' && rest[0] != '/') {
		return "", false
	}
	if rest[0] == '.' {
		return "", true
	}
	rest = rest[1:]
	if i := strings.IndexByte(rest, '['); i >= 0 {
		rest = rest[:i] // generic instantiation
	}
	slash := strings.LastIndexByte(rest, '/')
	dot := strings.IndexByte(rest[slash+1:], '.')
	if dot < 0 {
		return "", false
	}
	return rest[:slash+1+dot], true
}

// layerOf returns the layer a module frame is charged to, or "" for a
// frame outside the module. A module package missing from packageLayer
// is an error, so a new package cannot be charged silently.
func layerOf(f frame) (string, error) {
	pkg, ok := framePackage(f.function)
	if !ok {
		return "", nil
	}
	if pkg == "internal/sim" && path.Base(f.file) == "net.go" {
		return "sim.net", nil
	}
	if l, ok := packageLayer[pkg]; ok {
		return l, nil
	}
	return "", fmt.Errorf("package %q of frame %s has no layer", pkg, f.function)
}

// isRuntimeFrame reports whether a leaf frame is the Go runtime's.
func isRuntimeFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/")
}

// layerSplit is a CPU profile folded into layers.
type layerSplit struct {
	ns        map[string]int64
	totalNs   int64
	runtimeNs int64 // samples whose leaf frame is the Go runtime's
}

// foldLayers charges each sample to the layer of its innermost module
// frame, or to go-runtime when the stack has none. Every sample lands in
// exactly one layer, so the layers sum to the profile's total.
func foldLayers(p *cpuProfile) (layerSplit, error) {
	s := layerSplit{ns: make(map[string]int64, len(layers)), totalNs: p.totalNs}
	for _, smp := range p.samples {
		l := "go-runtime"
		for _, f := range smp.frames {
			fl, err := layerOf(f)
			if err != nil {
				return layerSplit{}, err
			}
			if fl != "" {
				l = fl
				break
			}
		}
		s.ns[l] += smp.ns
		if len(smp.frames) > 0 && isRuntimeFrame(smp.frames[0].function) {
			s.runtimeNs += smp.ns
		}
	}
	return s, nil
}
