# Common development targets. Everything is stdlib-only Go; no external
# dependencies are fetched.

GO ?= go

.PHONY: all build vet staticcheck test test-short race cover bench bench-check bench-pipeline fuzz lint lint-go experiments examples clean

all: build vet staticcheck lint-go test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l . | tee /dev/stderr)"

# staticcheck is optional locally (the image is stdlib-only); CI installs
# it. The target degrades to a notice when the binary is absent.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

test: vet
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The full race pass covers every package: the parallel partitioned join,
# anti-join, and group-by operators are exercised with workers > cores by
# the *_test.go worker sweeps, so any shared mutable state surfaces here.
race:
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/eval/ ./internal/storage/ ./internal/core/ ./internal/planner/

cover:
	$(GO) test -cover ./internal/... ./cmd/...

bench:
	$(GO) test -bench=. -benchmem .

# bench/ is its own module: vet it, run its unit tests and its ~15 s
# smoke run (what CI's "bench check" step runs).
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Regenerate BENCH_pipeline.json: the streaming executor's peak buffered
# tuples, allocation and dictionary statistics on E1/E3/E6 at the
# canonical scale and seed. Commit the refreshed file with any executor
# change; CI gates allocation regressions against it via benchcheck.
bench-pipeline:
	$(GO) run ./cmd/flockbench -exp E1,E3,E6 -scale 0.25 -seed 1998 -json \
		-pipeline-out BENCH_pipeline.json >/dev/null

fuzz:
	$(GO) test -fuzz=FuzzParseFlock -fuzztime=30s ./internal/datalog/
	$(GO) test -fuzz=FuzzDecodePartial -fuzztime=10s ./internal/cluster/

# Static analysis of the example flock corpus (zero errors required;
# the warnings it prints are pinned by the golden tests under
# internal/analysis/testdata).
lint:
	$(GO) run ./cmd/flockvet examples/flocks/*.flock

# Engine-invariant analysis of the Go tree itself (determinism, limits
# gating, fsync-before-publish, Value equality discipline). Any DLxxx
# error fails the build; suppress only with a written reason via
# `//lint:ignore DLxxx reason`.
lint-go:
	$(GO) run ./cmd/flockalint ./...

# Regenerate the EXPERIMENTS.md reference tables (several minutes).
experiments:
	$(GO) run ./cmd/flockbench -scale 1.0

examples:
	for ex in quickstart medical webwords graphpaths weighted itemsets multidisease; do \
		echo "=== $$ex ==="; $(GO) run ./examples/$$ex || exit 1; \
	done

clean:
	$(GO) clean ./...
