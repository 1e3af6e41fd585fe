# hybridstitch — build/test/reproduce targets.

GO ?= go

.PHONY: all build test race test-race lint lint-json lint-baseline lint-help check acc accdiff experiments fuzz fuzz-smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

test-race: race

# Repo-specific static analysis: the seven stitchlint analyzers
# (pairguard, streamsync, faultsite, blockinglock, lockorder, obsnames,
# hotpath) over every package, including tests. Packages are checked in
# parallel (bounded by GOMAXPROCS); the gate fails only on findings not
# recorded in the committed lint-baseline.json.
lint:
	$(GO) run ./cmd/stitchlint -baseline lint-baseline.json ./...

# Machine-readable findings (SARIF-lite JSON) for editors and CI
# annotation:
lint-json:
	$(GO) run ./cmd/stitchlint -baseline lint-baseline.json -json ./...

# Accept the current findings into the baseline. Every generated entry
# carries a placeholder reason — rewrite it before committing, or fix the
# finding instead. ReadBaseline rejects reasonless entries.
lint-baseline:
	$(GO) run ./cmd/stitchlint -baseline lint-baseline.json -update-baseline ./...

# How to waive a finding: stitchlint diagnostics can be suppressed at the
# offending line (same line or the line above) with
#
#     //lint:allow <analyzer> <reason>
#
# e.g. //lint:allow pairguard allocation must fail; nothing is allocated
#
# The reason is mandatory — a bare //lint:allow <analyzer> is itself
# reported, as is one naming an analyzer the suite does not have. Larger
# accepted debts belong in lint-baseline.json (make lint-baseline), where
# every entry also needs a reason and stale entries are warned about.
# `make lint-help` prints the analyzers and this recipe.
lint-help:
	$(GO) run ./cmd/stitchlint -list
	@echo ""
	@echo "suppress one finding:  //lint:allow <analyzer> <reason>   (same line or line above; reason required)"
	@echo "accept standing debt:  make lint-baseline                 (rewrite the placeholder reasons before committing)"
	@echo "machine output:        make lint-json"

# Full pre-merge gate: vet, static analysis, build, tests, race detector.
# The obs suite runs race-enabled on its own first: the span ring and the
# timeline ordering fix are exactly the code whose bugs only the race
# detector sees. Phase 3's pipeline (pyramid writer, read-ahead) and the
# tile server run race-enabled at three GOMAXPROCS: the shared worker pool
# is sized once, at the first pass's -cpu 1, so it stays empty and the
# default-pool tests run every stage inline on the caller, while the tests
# with private pools run 1 and 3 helpers on 1, 2 and 4 Ps. Phase 1's
# staged schedulers (the pipelined and GPU variants, the per-socket
# bands) and the engine pieces they share run race-enabled at the same
# three GOMAXPROCS: their stage interleavings differ with the P count;
# the oracle wall (hotpath_diff_test.go: layout × transform size × exec ×
# six implementations) rides the same line, since a padded GPU run is a
# staged scheduler too. The planner's size decision is made once under
# concurrent callers and the aligners are pooled by it: the fft and pciam
# size tests run race-enabled by name.
# bench/ is its own module (a `replace` points it at this one), invisible
# to ./... here, so it is vetted, tested and linted by name: an API it
# uses cannot be deleted unnoticed.
check: build
	$(GO) vet ./...
	$(GO) run ./cmd/stitchlint -baseline lint-baseline.json ./...
	$(GO) test ./...
	$(GO) test -race ./internal/obs/ ./internal/gpu/
	$(GO) test -race -cpu 1,2,4 ./internal/tiffio/ ./internal/compose/ ./internal/tileserve/
	$(GO) test -race -cpu 1,2,4 -run 'GPU|Pipelined|Engine|Socket|HotPath|FFTExec' ./internal/stitch/
	$(GO) test -race -run 'Size|Wisdom|Autotune|Padded|Alloc|Pool' ./internal/fft/ ./internal/pciam/
	$(GO) test -race -short ./internal/accuracy/ ./internal/imagegen/
	$(GO) test -race ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(GO) run ./cmd/stitchlint -C bench -baseline ../lint-baseline.json ./...

# Benchmarks: the end-to-end benchmark and its parent-vs-change gate live
# in bench/ (see bench/README.md: `bash bench/run.sh ...`, and
# `go run . -runs 10 -o a.json` / `-compare a.json b.json` from there).
# The root bench_test.go micro-benchmarks stay runnable with
# `go test -bench=. -benchmem .`; the committed BENCH_pr*.json files are
# the records EXPERIMENTS.md cites, not inputs to a gate.

# acc runs every named adversarial scenario through the full
# confidence-weighted pipeline, fails if any scenario misses its
# documented threshold (see EXPERIMENTS.md "Accuracy methodology"), and
# writes the scores to ACC_<tag>.json for accdiff.
ACC_TAG ?= pr6
acc:
	$(GO) run ./cmd/experiments -acc-out ACC_$(ACC_TAG).json

# accdiff measures the working tree's accuracy into ACC_head.json
# (git-ignored) and fails on a regression against the committed reference
# snapshot (RMS up more than 15% + 0.1 px, or the within-1-px fraction
# down more than 0.02). OLD picks another reference:
#   make accdiff OLD=ACC_pr5.json
OLD ?= ACC_pr6.json
accdiff:
	$(GO) run ./cmd/experiments -acc-out ACC_head.json
	$(GO) run ./cmd/experiments -acc-old $(OLD) -acc-new ACC_head.json

# Regenerate every table and figure of the paper (artifacts in results/).
experiments:
	$(GO) run ./cmd/experiments -exp all -out results

fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/tiffio/
	$(GO) test -fuzz FuzzPyramidRoundTrip -fuzztime 30s ./internal/tiffio/
	$(GO) test -fuzz FuzzSplitPlanRoundTrip -fuzztime 30s ./internal/fft/
	$(GO) test -fuzz FuzzUnmarshalResult -fuzztime 30s ./internal/stitch/
	$(GO) test -fuzz FuzzDegradedTileRead -fuzztime 30s ./internal/stitch/
	$(GO) test -fuzz FuzzChromeTrace -fuzztime 30s ./internal/obs/
	$(GO) test -fuzz FuzzRealPlanRoundTrip -fuzztime 30s ./internal/fft/
	$(GO) test -fuzz FuzzCSRLaplacian -fuzztime 30s ./internal/global/

# fuzz-smoke is the CI-sized pass: every fuzz target for 10s each, enough
# to catch regressions in the decode/unmarshal paths without dominating
# the workflow's wall clock.
fuzz-smoke:
	$(GO) test -fuzz FuzzDecode -fuzztime 10s ./internal/tiffio/
	$(GO) test -fuzz FuzzPyramidRoundTrip -fuzztime 10s ./internal/tiffio/
	$(GO) test -fuzz FuzzSplitPlanRoundTrip -fuzztime 10s ./internal/fft/
	$(GO) test -fuzz FuzzUnmarshalResult -fuzztime 10s ./internal/stitch/
	$(GO) test -fuzz FuzzDegradedTileRead -fuzztime 10s ./internal/stitch/
	$(GO) test -fuzz FuzzChromeTrace -fuzztime 10s ./internal/obs/
	$(GO) test -fuzz FuzzRealPlanRoundTrip -fuzztime 10s ./internal/fft/
	$(GO) test -fuzz FuzzCSRLaplacian -fuzztime 10s ./internal/global/

clean:
	rm -rf results dataset pyramid_out
