GO ?= go

.PHONY: all build test test-short test-race test-perfbench vet lint fmt-check bench-lp bench-online bench-milp bench-price bench ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race -short ./...

# test-perfbench vets and tests the benchmark's own module (perfbench/ has a
# go.mod of its own, so the root ./... patterns do not reach it).
test-perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

vet:
	$(GO) vet ./...

# lint runs vet plus staticcheck when it is installed (CI installs it in a
# dedicated blocking job; locally it is optional).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2025.1)"; \
	fi

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# bench-lp regenerates BENCH_lp.json, the LP backend perf trajectory
# (Dense vs SparseLU on te/cluster/lb-shaped instances at three sizes).
bench-lp:
	$(GO) run ./cmd/lpbench -reps 3 -o BENCH_lp.json

# bench-online regenerates BENCH_online.json, the online engine perf
# trajectory (warm incremental vs cold full re-solve across a dirty-fraction
# sweep on cluster, capacity-jitter, lb, TE demand-churn, and space-sharing
# round sequences).
bench-online:
	$(GO) run ./cmd/onlinebench -reps 3 -o BENCH_online.json

# bench-milp regenerates BENCH_milp.json, the exact-MILP perf trajectory
# (persistent-model branch and bound vs the cold-per-node baseline on
# lb-shaped instances; the headline is the LP pivot ratio, held at ≥2x).
bench-milp:
	$(GO) run ./cmd/milpbench -reps 3 -o BENCH_milp.json

# bench-price regenerates BENCH_price.json, the price-discovery engine's
# quality-vs-latency trajectory (price vs warm LP POP vs the global solve on
# cluster and lb online rounds, plus price-only scale rows up to 1M clients).
bench-price:
	$(GO) run ./cmd/pricebench -reps 3 -o BENCH_price.json

# bench runs the paper-evaluation benchmark suite at Small scale.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

ci: fmt-check vet build test-short test-perfbench
