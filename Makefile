# Offline quality gate for the mpshare workspace.
#
# Everything here runs without network access: all external crates are
# vendored as API-compatible stand-ins under vendor/ and wired in via
# workspace path dependencies. Do NOT `cargo add` registry dependencies.

CARGO ?= cargo

.PHONY: check build test test-all vendor-test fmt clippy alloc-gate bench bench-gate fault-smoke trace-smoke fuzz-smoke component-smoke results-smoke clean

# The full tier-1 gate: release build, tests, the vendored JSON writer's
# differential tests, formatting, lints, the allocation gate, the fault-,
# trace-, fuzz-, component-core and results smoke runs, and the bench
# regression gate.
check: build test vendor-test fmt clippy alloc-gate fault-smoke trace-smoke fuzz-smoke component-smoke results-smoke bench-gate

# --workspace so member binaries (mpshare-repro, mpshare-sched,
# mpshare-fuzz, bench_gate) exist for the smoke gates below even from a
# clean target dir.
build:
	$(CARGO) build --release --workspace

# Tier-1 tests: the root package's suites (lib, integration, doc-tests).
test:
	$(CARGO) test -q

# Every crate in the workspace, including the vendored-stand-in consumers.
test-all:
	$(CARGO) test -q --workspace

# The vendored stand-ins sit outside the workspace, so neither `test` nor
# `test-all` runs their unit tests. serde_json's number writer is checked
# there byte for byte against `core::fmt` over ~3M seeded floats, and its
# compile-time power-of-5 tables against a bignum regeneration. Release
# mode keeps the differential runs short.
vendor-test:
	$(CARGO) test -q --release -p serde_json

fmt:
	$(CARGO) fmt --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Allocation gate (tests/alloc_gate.rs): a counting global allocator
# proves the steady-state engine contract (zero heap allocations per
# `step()` with recycled scratch) and the warm-planner bound (a warm
# `plan_warm` call allocates no more than the cold `plan` it replaces).
# Release mode is required: debug builds run the engine's debug
# assertions, some of which allocate by design.
alloc-gate:
	$(CARGO) test -q --release --test alloc_gate

# Engine + plan-search hot-path benchmarks; per-scenario medians (ns) are
# written to BENCH_engine.json by the vendored criterion stand-in. A prior
# BENCH_engine.json is optional: when present it is kept as
# BENCH_engine.prev.json for comparison, when absent this run records the
# baseline.
bench:
	@if [ -f $(CURDIR)/BENCH_engine.json ]; then \
		cp $(CURDIR)/BENCH_engine.json $(CURDIR)/BENCH_engine.prev.json; \
		echo "previous medians kept in BENCH_engine.prev.json"; \
	else \
		echo "no prior BENCH_engine.json; this run records the baseline"; \
	fi
	MPSHARE_BENCH_JSON=$(CURDIR)/BENCH_engine.json \
		$(CARGO) bench -p mpshare-bench --bench engine_performance

# Bench regression gate: re-measures the engine benchmarks into a scratch
# summary and compares per-scenario medians against the committed
# BENCH_engine.json. Any scenario present in both that regressed by more
# than 25% fails the gate; scenarios present in only one file (added,
# renamed, or retired benchmarks) are tolerated. Skipped with a note when
# no baseline has been committed yet.
bench-gate: build
	@if [ ! -f $(CURDIR)/BENCH_engine.json ]; then \
		echo "bench-gate: no BENCH_engine.json baseline; run 'make bench' to record one"; \
	else \
		rm -f $(CURDIR)/.bench-gate.json && \
		MPSHARE_BENCH_JSON=$(CURDIR)/.bench-gate.json \
			$(CARGO) bench -p mpshare-bench --bench engine_performance && \
		./target/release/bench_gate $(CURDIR)/BENCH_engine.json \
			$(CURDIR)/.bench-gate.json --max-regression 0.25 && \
		rm -f $(CURDIR)/.bench-gate.json && \
		echo "bench regression gate passed"; \
	fi

# Fault-injection determinism gate: the seeded ext_faults experiment must
# be bit-identical run-to-run and across serial vs. parallel execution.
fault-smoke: build
	@rm -rf .fault-smoke
	@mkdir -p .fault-smoke
	./target/release/mpshare-repro ext_faults --out .fault-smoke/a >/dev/null
	./target/release/mpshare-repro ext_faults --out .fault-smoke/b >/dev/null
	./target/release/mpshare-repro ext_faults --out .fault-smoke/c --serial >/dev/null
	cmp .fault-smoke/a/ext_faults.json .fault-smoke/b/ext_faults.json
	cmp .fault-smoke/a/ext_faults.json .fault-smoke/c/ext_faults.json
	@rm -rf .fault-smoke
	@echo "fault-determinism smoke gate passed"

# Observability determinism gate: two recorded serial runs must produce
# byte-identical trace, metrics, and timeline artifacts (the recorder
# uses simulated time and sequence numbers only — no wall clocks), and a
# recorded parallel run must produce the byte-identical timeline export
# (it is a pure function of the observation multiset) and still carry
# every required track, metric family, and timeline invariant
# (validate-obs). Experiment outputs must be unaffected by recording.
# ext_online's trace has no engine run, so two serial ext_attrib traces
# cover the engine half of the merged export (pids 0-2): they must be
# byte-identical and pass validate-obs --engine-trace.
trace-smoke: build
	@rm -rf .trace-smoke
	@mkdir -p .trace-smoke
	./target/release/mpshare-repro ext_online --out .trace-smoke/a --serial \
		--trace-out .trace-smoke/a-trace.json --metrics-out .trace-smoke/a-metrics.json \
		--timeline-out .trace-smoke/a-timeline.json >/dev/null 2>&1
	./target/release/mpshare-repro ext_online --out .trace-smoke/b --serial \
		--trace-out .trace-smoke/b-trace.json --metrics-out .trace-smoke/b-metrics.json \
		--timeline-out .trace-smoke/b-timeline.json >/dev/null 2>&1
	cmp .trace-smoke/a-trace.json .trace-smoke/b-trace.json
	cmp .trace-smoke/a-metrics.json .trace-smoke/b-metrics.json
	cmp .trace-smoke/a-metrics.json.prom .trace-smoke/b-metrics.json.prom
	cmp .trace-smoke/a-timeline.json .trace-smoke/b-timeline.json
	./target/release/mpshare-repro ext_online --out .trace-smoke/c \
		--trace-out .trace-smoke/c-trace.json --metrics-out .trace-smoke/c-metrics.json \
		--timeline-out .trace-smoke/c-timeline.json >/dev/null 2>&1
	cmp .trace-smoke/a-timeline.json .trace-smoke/c-timeline.json
	./target/release/mpshare-repro validate-obs \
		--trace-out .trace-smoke/c-trace.json --metrics-out .trace-smoke/c-metrics.json \
		--timeline-out .trace-smoke/c-timeline.json
	cmp .trace-smoke/a/ext_online.json .trace-smoke/c/ext_online.json
	./target/release/mpshare-repro ext_attrib --out .trace-smoke/d --serial \
		--trace-out .trace-smoke/d-trace.json >/dev/null 2>&1
	./target/release/mpshare-repro ext_attrib --out .trace-smoke/e --serial \
		--trace-out .trace-smoke/e-trace.json >/dev/null 2>&1
	cmp .trace-smoke/d-trace.json .trace-smoke/e-trace.json
	./target/release/mpshare-repro validate-obs --engine-trace .trace-smoke/d-trace.json
	@rm -rf .trace-smoke
	@echo "trace-determinism smoke gate passed"

# Fuzz smoke gate: a fixed-seed 500-scenario campaign must be clean and
# byte-identical serial vs. parallel (the generator, oracle, and report
# are pure functions of the seed block), and every pinned scenario in
# configs/zoo/ — shrunk repros of past bugs plus mechanism coverage —
# must replay with zero violations and its exact pinned digest.
fuzz-smoke: build
	@rm -rf .fuzz-smoke
	@mkdir -p .fuzz-smoke
	./target/release/mpshare-fuzz run --count 500 --base 0 --out .fuzz-smoke/par.txt
	./target/release/mpshare-fuzz run --count 500 --base 0 --serial --out .fuzz-smoke/ser.txt
	cmp .fuzz-smoke/par.txt .fuzz-smoke/ser.txt
	./target/release/mpshare-fuzz zoo configs/zoo
	@rm -rf .fuzz-smoke
	@echo "fuzz smoke gate passed"

# Component-core smoke gate: the component/tick-heap core (`SimCore`)
# drives only compositions, so this gate runs what a composition runs:
# the zero-alloc steady-state contract must hold with one `GpuComponent`
# driven through `SimCore`, and the two-GPU + interconnect composition
# must run end-to-end with each GPU bit-identical to its solo run.
component-smoke: build
	$(CARGO) test -q --release --test alloc_gate component_core_steady_state_is_alloc_free
	$(CARGO) test -q --release --test component_core
	@echo "component-core smoke gate passed"

# Results smoke gate: every committed artifact under results/ (all paper
# tables and figures, the extensions, and the SLO/goodput report) must be
# regenerated byte for byte by `all --serial` plus `report --serial`. It
# pins every number the JSON/CSV/text writers print.
results-smoke: build
	@rm -rf .results-smoke
	./target/release/mpshare-repro all --serial --out .results-smoke >/dev/null
	./target/release/mpshare-repro report --serial --out .results-smoke >/dev/null
	diff -r results .results-smoke
	@rm -rf .results-smoke
	@echo "results smoke gate passed"

clean:
	$(CARGO) clean
