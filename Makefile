# Standard checks for the FreePart reproduction. `make check` is the gate:
# formatting, vet, build, and race-enabled tests. The race pass includes the
# fixed-seed chaos soaks and zero-cost guards in internal/chaos.

GO ?= go

# Serving drills, each regenerating its BENCH_<drill>.json artifact
# (virtual-time rows) through cmd/experiments:
#   serving    shard counts 1/2/4/8 over the detection pipeline
#   failover   one shard killed mid-window vs undisturbed
#   autoscale  tracking load ramp, fixed pools vs the control plane
#   overload   two tenants at 1/2/4/10x capacity, FIFO vs WFQ admission
#   isolation  18 live CVEs per tier policy plus its serving overhead
#   defense    the CVE campaign vs static presets and the adaptive controller
#   gray       one shard alive but 10x slow, unmitigated / drain / hedge
#   partition  Zipf visits by placement regime, hot-range melt and rebalance
DRILLS := serving failover autoscale overload isolation defense gray partition

.PHONY: check fmt vet build test race bench drills $(DRILLS)

check: fmt vet build race

# gofmt cleanliness gate: fails listing any file that gofmt would rewrite.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -count=1 ./...

race:
	$(GO) test -race -count=1 ./...

bench:
	$(GO) test -bench=. -benchmem

drills: $(DRILLS)

$(DRILLS):
	$(GO) run ./cmd/experiments -exp $@ -json BENCH_$@.json
