# hybridstitch — build/test/reproduce targets.

GO ?= go

.PHONY: all build test race test-race lint lint-help check acc accdiff experiments fuzz fuzz-smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

test-race: race

# Repo-specific static analysis: the five stitchlint analyzers
# (pairguard, blockinglock, lockorder, obsnames, hotpath) over every
# package, including tests. Packages are checked in parallel (bounded by
# GOMAXPROCS); any finding fails the gate.
lint:
	$(GO) run ./cmd/stitchlint ./...

# How to waive a finding — the only way: suppress it at the offending
# line (same line or the line above) with
#
#     //lint:allow <analyzer> <reason>
#
# e.g. //lint:allow pairguard allocation must fail; nothing is allocated
#
# The reason is mandatory — a bare //lint:allow <analyzer> is itself
# reported, as is one naming an analyzer the suite does not have.
# `make lint-help` prints the analyzers and this recipe.
lint-help:
	$(GO) run ./cmd/stitchlint -list
	@echo ""
	@echo "waive one finding:  //lint:allow <analyzer> <reason>   (same line or line above; reason required)"

# Full pre-merge gate: formatting, vet, static analysis, build, tests,
# race detector.
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
# the oracle wall (hotpath_diff_test.go: layout × transform size × pool
# budget × six implementations) rides the same line, since a padded GPU
# run is a staged scheduler too. The transform size and the split rule
# are pure functions of the size and the free pool tokens: the fft and
# pciam size, split-rule, pool and zero-alloc tests run race-enabled by
# name, with no timing to skip. Phase 2's
# solve hands its chunks to persistent helpers only above 2048 rows, so
# the tests on plates that large run race-enabled at the same three
# GOMAXPROCS, with private pools of 0, 1 and 3 helpers: the pools-agree
# solve, the pinned CG count and float bits, the serial oracle, and the
# one-chunk and drained-pool helper tests.
# bench/ is its own module (a `replace` points it at this one), invisible
# to ./... here, so it is vetted, tested and linted by name: an API it
# uses cannot be deleted unnoticed.
check: build
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) run ./cmd/stitchlint ./...
	$(GO) test ./...
	$(GO) test -race ./internal/obs/ ./internal/gpu/
	$(GO) test -race -cpu 1,2,4 ./internal/tiffio/ ./internal/compose/ ./internal/tileserve/
	$(GO) test -race -cpu 1,2,4 -run 'GPU|Pipelined|Engine|Socket|HotPath|FFTExec' ./internal/stitch/
	$(GO) test -race -run 'Size|Autotune|SplitRule|Clock|Padded|Alloc|Pool' ./internal/fft/ ./internal/pciam/
	$(GO) test -race -cpu 1,2,4 -run 'TestSolveParallelPoolsAgree|TestSolvePinnedBits|TestTwoLevelApplyMatchesSerial|TestParRun' ./internal/global/
	$(GO) test -race -short ./internal/accuracy/ ./internal/imagegen/
	$(GO) test -race ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(GO) run ./cmd/stitchlint -C bench ./...

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

# Every fuzz target, one package:Target pair each; a new target is one
# more line here. fuzz and fuzz-smoke run them all and differ only in
# -fuzztime: fuzz-smoke is the CI-sized pass, enough to catch
# regressions in the decode/unmarshal paths without dominating the
# workflow's wall clock. -run '^$' skips each package's unit tests, which
# go test -fuzz would otherwise run first; make check runs those.
FUZZ_TARGETS := \
	./internal/tiffio/:FuzzDecode \
	./internal/tiffio/:FuzzPyramidRoundTrip \
	./internal/fft/:FuzzSplitPlanRoundTrip \
	./internal/stitch/:FuzzUnmarshalResult \
	./internal/stitch/:FuzzDegradedTileRead \
	./internal/obs/:FuzzChromeTrace \
	./internal/fft/:FuzzRealPlanRoundTrip \
	./internal/global/:FuzzStencilLaplacian \
	./internal/compose/:FuzzBandEngine

fuzz: FUZZTIME = 30s
fuzz-smoke: FUZZTIME = 10s
fuzz fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "$(GO) test -run '^$$' -fuzz $${t#*:} -fuzztime $(FUZZTIME) $${t%%:*}"; \
		$(GO) test -run '^$$' -fuzz $${t#*:} -fuzztime $(FUZZTIME) $${t%%:*}; \
	done

clean:
	rm -rf results dataset pyramid_out
