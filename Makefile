# Convenience targets for the DiffTune reproduction.

.PHONY: all build test lint racecheck verify serve-smoke fleet-smoke loadtest bench bench-full bench-json bench-guard bench-sampling clean doc quickstart

all: build

build:
	dune build @all

test:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

# Repo lint: dt_lint walks lib/ and bin/ with the Dt_analysis.Lint AST
# rules and fails on any non-whitelisted finding.
lint:
	dune build @lint

# dt_race suite: the dynamic lock-order/race sanitizer unit tests plus
# the armed race.* fault sites end-to-end (DIFFTUNE_RACECHECK=1), then
# the five lock-discipline lint rules over the tree.
racecheck: build
	DIFFTUNE_RACECHECK=1 dune exec test/test_race.exe
	dune exec bin/dt_lint.exe -- --only \
	  unguarded-mutation,lock-no-protect,blocking-under-lock,lock-order,atomic-rmw \
	  lib bin

# End-to-end serving smoke: drives the real `difftune_cli serve` daemon
# over stdio and a Unix socket with worker crashes, a pathologically
# slow block, and input corruption armed, asserting that every request
# is answered exactly once (success, labeled fallback, or structured
# error) and the daemon exits cleanly.
serve-smoke: build
	dune build @serve-smoke --force

# End-to-end fleet smoke: spawns `difftune_cli fleet` (N serve shards +
# the consistent-hash router) from a JSON spec and asserts the sharded
# contract under armed cluster faults — shard crash mid-storm (restart
# + failover), net partition, slow shard — zero lost ids, exactly-once,
# clean exit with an aggregated cluster report.
fleet-smoke: build
	dune build @fleet-smoke --force

# Zipfian fleet load test: 2048 concurrent seeded clients against a
# 4-shard fleet with one shard crash armed; writes BENCH_PR9.json
# (latency percentiles, shed rate, failovers, cache-hit locality).
loadtest: build
	dune exec bench/loadtest.exe -- _build/default/bin/difftune_cli.exe

# Full verification: build, repo lint, the regular test suite, then the
# fault smoke matrix — every injection site crossed with serial and
# parallel pools, and the whole matrix run under both tape executors
# (DIFFTUNE_COMPILE=0 interpreted oracle, =1 compiled plans).  Each
# cell kills/corrupts a checkpointed training run and requires it to
# converge (bit-identically, unless the fault was numeric).  One extra
# cell per executor re-runs the combined fault spec with the graph
# sanitizer armed: arena poisoning and generation stamps must stay
# quiet on correct code even while faults fire.
FAULT_SPECS = pool.worker@2 grad.nan@2 ckpt.truncate@1 engine.abort@2 \
              collect.pilot_crash@1 "engine.abort@2;grad.nan@3"
verify: build
	dune build @lint
	dune runtest --force
	@for compile in 0 1; do \
	  for faults in $(FAULT_SPECS); do \
	    for domains in 1 4; do \
	      echo "== compile=$$compile faults=$$faults domains=$$domains =="; \
	      DIFFTUNE_COMPILE=$$compile DIFFTUNE_FAULTS="$$faults" \
	        DIFFTUNE_DOMAINS=$$domains \
	        dune exec test/fault_smoke.exe || exit 1; \
	    done; \
	  done; \
	  echo "== compile=$$compile faults=engine.abort@2;grad.nan@3 domains=4 sanitize=1 =="; \
	  DIFFTUNE_COMPILE=$$compile DIFFTUNE_SANITIZE=1 \
	    DIFFTUNE_FAULTS="engine.abort@2;grad.nan@3" \
	    DIFFTUNE_DOMAINS=4 dune exec test/fault_smoke.exe || exit 1; \
	done
	@# Sampling cells: the complexity-guided collection suite
	@# (stratifier determinism, allocation floors, pilot kill/resume,
	@# guided-vs-uniform fidelity) under both tape executors, plus one
	@# cell with the dynamic race sanitizer armed (guided collect runs
	@# pilot fits and simcache traffic across domains).
	@for compile in 0 1; do \
	  echo "== compile=$$compile sampler =="; \
	  DIFFTUNE_COMPILE=$$compile dune exec test/test_sampler.exe || exit 1; \
	done
	@echo "== sampler racecheck=1 =="
	DIFFTUNE_RACECHECK=1 dune exec test/test_sampler.exe || exit 1
	@# Plan-cache confinement cell: table descent keeps one plan cache
	@# per pool lane, and the race sanitizer checks each cache's owner
	@# token while the compiled-executor suite descends at 1, 2 and 4
	@# domains.
	@echo "== plan racecheck=1 =="
	DIFFTUNE_RACECHECK=1 dune exec test/test_plan.exe || exit 1
	@# dt_race cells: the armed race.unlocked_write / race.lock_cycle
	@# sites must be caught by the dynamic checker under both tape
	@# executors (the test binary also proves they are MISSED with
	@# checking off).
	@for compile in 0 1; do \
	  echo "== compile=$$compile racecheck=1 =="; \
	  DIFFTUNE_COMPILE=$$compile DIFFTUNE_RACECHECK=1 \
	    dune exec test/test_race.exe || exit 1; \
	done
	@# Surrogate-lifecycle cell: the unit suite (drift windows, registry
	@# corruption, canary rollback, reservoir determinism) and the serving
	@# smoke (whose lifecycle scenarios arm lifecycle.drift_storm /
	@# retrain_crash / corrupt_model) under both tape executors.
	@for compile in 0 1; do \
	  echo "== compile=$$compile lifecycle =="; \
	  DIFFTUNE_COMPILE=$$compile dune exec test/test_lifecycle.exe || exit 1; \
	  DIFFTUNE_COMPILE=$$compile \
	    dune exec test/serve_smoke.exe -- _build/default/bin/difftune_cli.exe \
	    || exit 1; \
	done
	@# Sharded-fleet cell: the cluster unit suite and the end-to-end
	@# fleet smoke (shard crash / net partition / slow shard armed via
	@# fleet-spec shard_faults) under both tape executors, plus one cell
	@# with the race sanitizer armed inside every shard daemon.
	@for compile in 0 1; do \
	  echo "== compile=$$compile fleet =="; \
	  DIFFTUNE_COMPILE=$$compile dune exec test/test_cluster.exe || exit 1; \
	  DIFFTUNE_COMPILE=$$compile \
	    dune exec test/fleet_smoke.exe -- _build/default/bin/difftune_cli.exe \
	    || exit 1; \
	done
	@echo "== fleet racecheck=1 =="
	DIFFTUNE_RACECHECK=1 \
	  dune exec test/fleet_smoke.exe -- _build/default/bin/difftune_cli.exe \
	  || exit 1
	@echo "== bench guard =="
	dune exec bench/main.exe -- perf-guard
	@echo "verify: all fault combinations passed"

bench:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

bench-full:
	DIFFTUNE_SCALE=full dune exec bench/main.exe 2>&1 | tee bench_output.txt

# Machine-readable perf snapshot (ns/op + domain-scaling samples/sec;
# includes the sanitizer forward+backward overhead measurement).
bench-json:
	dune exec bench/main.exe -- perf-json

# Perf regression guard: re-measures surrogate.forward, mca.timing and
# the tokenizer (min of three passes, per-key drift thresholds) against
# the committed BENCH_PR*.json baselines (each key resolved from the
# newest file that records it), and enforces the absolute bounds
# recorded there (compiled speedup >= 1.5x, sanitize overhead <= 15%,
# batch-32 per-sample <= 1.10x batch-8, lifecycle shadow-scoring
# overhead <= 10%, zero requests shed across a hot-swap, and the PR 9
# fleet load-test bounds: zero lost/duplicate, shed <= 1%, the armed
# shard crash survived, cache locality >= 50%, p99 <= 3 s).
bench-guard: build
	dune exec bench/main.exe -- perf-guard

# Samples-to-fidelity bench: uniform vs complexity-guided collection on
# a skewed corpus, ramping the simulation budget until fixed MAPE +
# Kendall-tau targets are met; writes BENCH_PR10.json (sample counts,
# wall-clock, samples_ratio) whose guided/uniform ratio bench-guard
# holds at <= 0.6.
bench-sampling: build
	dune exec bench/sampling.exe

quickstart:
	dune exec examples/quickstart.exe

clean:
	dune clean
