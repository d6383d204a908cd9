GO ?= go
FUZZTIME ?= 5s
PROF_OUT ?= imcprof-smoke.json
CHAOS_OUT ?= chaos-smoke.json
LINT_OUT ?= imclint-report.json

.PHONY: check build vet lint test race bench microbench fuzz prof-smoke chaos-smoke tidy

# check is the CI gate: compile everything, vet, lint the determinism
# invariants, run the full test suite under the race detector, give the
# fuzzers a short shake, prove the self-profiling pipeline end to end,
# and run the tiny chaos campaign (report written, re-read and parsed).
check: build vet lint race fuzz prof-smoke chaos-smoke

# lint runs the imclint determinism suite (maprange, nilguard,
# nondetflow, sharedmut, stalewaiver — see README "Static analysis")
# over the whole tree and writes the machine-readable report
# ($(LINT_OUT), a sorted JSON array, [] when clean) that CI uploads as
# an artifact; findings also print to stdout and make the target exit
# non-zero.
lint:
	$(GO) run ./cmd/imclint -json -o $(LINT_OUT) ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# prof-smoke is the self-profiling end-to-end check: capture a small
# profiled run, then parse and summarize the journal with imcprof. CI
# uploads $(PROF_OUT) as a workflow artifact so every run leaves an
# inspectable profile behind.
prof-smoke:
	$(GO) run ./cmd/imcprof capture -sim 64 -ana 32 -steps 2 -label "ci smoke" -o $(PROF_OUT)
	$(GO) run ./cmd/imcprof report -top 10 $(PROF_OUT)

# chaos-smoke is the chaos-campaign end-to-end check: run the tiny CI
# sweep (2 methods x 2 faults x 2 intensities x 2 mitigations x 2
# trials + a 3-step survival-boundary bisection), write $(CHAOS_OUT),
# then re-read and parse it for the printed summary. The campaign's
# digest is golden-gated in internal/chaos; CI uploads $(CHAOS_OUT) as
# a workflow artifact.
chaos-smoke:
	$(GO) run ./cmd/imcbench chaos -smoke -out $(CHAOS_OUT)

# bench runs the 1k/4k/10k-rank scale suite with fixed configurations,
# rewrites BENCH_PR7.json (wall-clock numbers and self-profiler
# annotations track the current tree) and fails if the modelled
# virtual-time results or metrics digests drift from the committed
# golden. IMC_SCALE_BENCH=update regenerates the golden after an
# intended model change.
bench:
	IMC_SCALE_BENCH=$${IMC_SCALE_BENCH:-1} $(GO) test -run TestScaleBench -count=1 -timeout 60m -v .

# microbench runs the per-figure testing.B benchmarks in quick mode.
microbench:
	$(GO) test -bench . -benchtime 2x -run '^$$' .

# fuzz discovers every native fuzzer in the tree (`go test -list`) and
# gives each FUZZTIME of shaking; saved crashers in testdata/fuzz replay
# as regular regression tests under `make test`. Discovery means a new
# FuzzXxx is picked up without editing this file.
fuzz:
	@set -e; \
	$(GO) test -run '^$$' -list '^Fuzz' ./... | \
	awk '$$1 ~ /^Fuzz/ { names[n++] = $$1 } $$1 == "ok" { for (i = 0; i < n; i++) print $$2, names[i]; n = 0 }' | \
	while read pkg fz; do \
		echo "-- fuzz $$fz ($$pkg, $(FUZZTIME)) --"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$fz$$" -fuzztime $(FUZZTIME); \
	done

tidy:
	$(GO) mod tidy
