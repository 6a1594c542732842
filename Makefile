# Convenience targets for the DiffTune reproduction.

.PHONY: all build test lint racecheck verify serve-smoke fleet-smoke loadtest bench bench-full bench-json bench-json-mca bench-json-train bench-json-refcpu bench-json-sanitize bench-guard bench-sampling clean doc quickstart

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
# parallel pools.  Each cell kills/corrupts a checkpointed training run
# and requires it to converge (bit-identically, unless the fault was
# numeric).  One extra cell re-runs the combined fault spec with the
# graph sanitizer armed: arena poisoning and generation stamps must stay
# quiet on correct code even while faults fire.  Every trace runs on
# the one autodiff interpreter, so no cell varies the executor.
FAULT_SPECS = pool.worker@2 grad.nan@2 ckpt.truncate@1 engine.abort@2 \
              collect.pilot_crash@1 "engine.abort@2;grad.nan@3"
verify: build
	dune build @lint
	dune runtest --force
	@for faults in $(FAULT_SPECS); do \
	  for domains in 1 4; do \
	    echo "== faults=$$faults domains=$$domains =="; \
	    DIFFTUNE_FAULTS="$$faults" DIFFTUNE_DOMAINS=$$domains \
	      dune exec test/fault_smoke.exe || exit 1; \
	  done; \
	done
	@echo "== faults=engine.abort@2;grad.nan@3 domains=4 sanitize=1 =="
	DIFFTUNE_SANITIZE=1 DIFFTUNE_FAULTS="engine.abort@2;grad.nan@3" \
	  DIFFTUNE_DOMAINS=4 dune exec test/fault_smoke.exe || exit 1
	@# Sampling cells: the complexity-guided collection suite
	@# (stratifier determinism, allocation floors, pilot kill/resume,
	@# guided-vs-uniform fidelity), plus one cell with the dynamic race
	@# sanitizer armed (guided collect runs pilot fits and simcache
	@# traffic across domains).
	@echo "== sampler =="
	dune exec test/test_sampler.exe || exit 1
	@echo "== sampler racecheck=1 =="
	DIFFTUNE_RACECHECK=1 dune exec test/test_sampler.exe || exit 1
	@# Confinement cell: the race sanitizer checks each surrogate
	@# model's owner token around its batched calls while the engine
	@# suite trains, fits and descends (the table descent at 1, 2 and 4
	@# domains).  Descent computes each block's token vectors on the
	@# pool's lanes before its first step, then runs each lane's shards
	@# on that lane's own context; this cell must stay quiet with that
	@# work spread over them.  The same suite pins the learned tables'
	@# bits (test_table_descent_domains, test_learn_end_to_end_smoke)
	@# and the Ithemal fit's (test_ithemal_smoke): a learn-loop change
	@# keeps those pins and every learn-quick golden check of the
	@# end-to-end benchmark.
	@echo "== difftune racecheck=1 =="
	DIFFTUNE_RACECHECK=1 dune exec test/test_difftune.exe || exit 1
	@# dt_race cell: the armed race.unlocked_write / race.lock_cycle
	@# sites must be caught by the dynamic checker (the test binary also
	@# proves they are MISSED with checking off).
	@echo "== racecheck=1 =="
	DIFFTUNE_RACECHECK=1 dune exec test/test_race.exe || exit 1
	@# Surrogate-lifecycle cell: the unit suite (drift windows, registry
	@# corruption, canary rollback, reservoir determinism) and the serving
	@# smoke (whose lifecycle scenarios arm lifecycle.drift_storm /
	@# retrain_crash / corrupt_model).
	@echo "== lifecycle =="
	dune exec test/test_lifecycle.exe || exit 1
	dune exec test/serve_smoke.exe -- _build/default/bin/difftune_cli.exe \
	  || exit 1
	@# Sharded-fleet cell: the cluster unit suite and the end-to-end
	@# fleet smoke (shard crash / net partition / slow shard armed via
	@# fleet-spec shard_faults), plus one cell with the race sanitizer
	@# armed inside every shard daemon.
	@echo "== fleet =="
	dune exec test/test_cluster.exe || exit 1
	dune exec test/fleet_smoke.exe -- _build/default/bin/difftune_cli.exe \
	  || exit 1
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

# Simulator rows only (mca.timing, mca.timing_random_table) ->
# BENCH_PR16.json, the baseline bench-guard holds mca.timing to.
bench-json-mca:
	dune exec bench/main.exe -- perf-json-mca

# Batched training row only (surrogate.train_batch.b8, minimum of three
# passes) -> BENCH_PR23.json, the baseline bench-guard holds it to.
bench-json-train:
	dune exec bench/main.exe -- perf-json-train

# Reference machine row only (refcpu.timing, one 100-iteration label of
# the guarded block, minimum of three passes) -> BENCH_PR24.json, the
# baseline bench-guard holds it to.
bench-json-refcpu:
	dune exec bench/main.exe -- perf-json-refcpu

# Sanitizer overhead rows only (the per-sequence train step with
# DIFFTUNE_SANITIZE off and on, interleaved) -> BENCH_PR25.json, whose
# sanitize.overhead_pct bench-guard bounds at 15%.
bench-json-sanitize:
	dune exec bench/main.exe -- perf-json-sanitize

# Perf regression guard: re-measures surrogate.forward, mca.timing, the
# tokenizer, surrogate.train_batch.b8 and refcpu.timing (min of three
# passes, per-key drift thresholds; refcpu.timing's gate is +60%
# against BENCH_PR24.json) against the committed BENCH_PR*.json baselines
# (each key resolved from the newest file that records it), and
# enforces the absolute bounds
# recorded there (sanitize overhead <= 15%, lifecycle shadow-scoring
# overhead <= 10%, zero
# requests shed across a hot-swap, and the fleet load-test bounds:
# zero lost/duplicate, shed <= 1%, the armed shard crash survived,
# cache locality >= 50%, p99 <= 3 s).
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
