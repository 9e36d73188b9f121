GO ?= go

.PHONY: tier1 build vet test race fmt staticcheck bench bench-baseline benchdiff bench-check chaos audit sweep cover fuzz trace clean

# COVER_FLOOR is the statement-coverage percentage `make cover` enforces;
# FUZZTIME bounds each `make fuzz` target run.
COVER_FLOOR ?= 70
FUZZTIME ?= 30s

# tier1 is the gate every change must pass: full build, vet, the test suite
# (plain and under the race detector), and gofmt cleanliness. CI runs the
# same set plus staticcheck and the determinism / bench-regression gates.
tier1: build vet test race fmt

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# RACE_TIMEOUT widens the per-package deadline: the simulation-heavy suites
# (experiments, leakage) exceed go test's default 10m under the race
# detector on single-core machines.
RACE_TIMEOUT ?= 30m

race:
	$(GO) test -race -timeout $(RACE_TIMEOUT) ./...

# fmt fails (listing the offenders) if any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# staticcheck runs if the binary is on PATH and is otherwise a no-op with a
# hint, so tier1 stays runnable on machines that cannot install tools.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2024.1.1)"; fi

# BENCH_PKGS are the packages whose benchmarks the regression gate runs:
# the end-to-end suite at the root, the scheduler layer pair, and the
# simulator's Step pairs (FS_RP core stepping, Baseline tick skipping).
BENCH_PKGS = . ./internal/sched ./internal/sim

bench:
	$(GO) test -bench=. -benchmem -run=^$$ $(BENCH_PKGS)

# bench-baseline refreshes the committed regression baseline from a fresh
# 3-count run; benchdiff gates the current tree against it.
bench-baseline:
	$(GO) test -bench=. -benchmem -benchtime=1x -count=3 -run=^$$ $(BENCH_PKGS) | $(GO) run ./cmd/benchdiff -write -note "make bench-baseline"

benchdiff:
	$(GO) test -bench=. -benchmem -benchtime=1x -count=3 -run=^$$ $(BENCH_PKGS) | $(GO) run ./cmd/benchdiff -src . -trend \
		-ratio-max BenchmarkSimulateFastForwardXalanRate2:BenchmarkSimulateDenseXalanRate2:0.5 \
		-ratio-max BenchmarkKolmogorovSmirnov:BenchmarkKolmogorovSmirnovInsertionSort:0.25 \
		-ratio-max BenchmarkBaselineTickQ64:BenchmarkBaselineTickQ64Reference:0.15 \
		-ratio-max BenchmarkStepFSRPMilc8:BenchmarkStepFSRPMilc8Dense:0.75 \
		-ratio-max BenchmarkStepBaselineMilc8:BenchmarkStepBaselineMilc8Dense:0.80

# bench-check runs every fsbench workload for one second: each checks its
# outputs against the seed-42 golden and a dense re-run, and the target
# fails on any drift. Only fsbench pins output bytes across commits.
bench-check:
	bash bench/run.sh --seconds 1

# chaos runs the fault-injection campaign against every scheduler; it exits
# non-zero if any Fixed Service variant lets a fault through undetected.
chaos:
	$(GO) run ./cmd/chaos

# audit runs the adversarial leakage auditor over every scheduler and
# prints one leakage certificate per line (JSONL) on stdout.
audit:
	$(GO) run ./cmd/audit

sweep:
	$(GO) run ./cmd/sweep -fig all

# cover measures statement coverage across every package (tests in one
# package exercise code in others, hence -coverpkg=./...) and fails if the
# total drops below COVER_FLOOR percent. Writes cover.out for tooling.
cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./... ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor: $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }' || \
	{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# fuzz runs both native fuzz targets (config parsing and trace-file
# ingestion) for FUZZTIME each.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzLoad -fuzztime=$(FUZZTIME) ./internal/config
	$(GO) test -run='^$$' -fuzz=FuzzReadTrace -fuzztime=$(FUZZTIME) ./internal/trace

# trace runs a small observed FS_BP simulation, exports the command stream,
# and renders it as a per-cycle timeline — a quick smoke of the whole
# observability path (tracer -> JSONL export -> tracedump).
trace:
	$(GO) run ./cmd/memsim -workload mcf -sched fs_bp -cores 2 -reads 200 -seed 7 -cmd-trace /tmp/fsmem-trace.jsonl
	$(GO) run ./cmd/tracedump /tmp/fsmem-trace.jsonl

clean:
	$(GO) clean ./...
