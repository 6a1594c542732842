# Convenience targets for the DiffTune reproduction.

.PHONY: all build test lint verify serve-smoke fleet-smoke loadtest bench bench-full bench-json bench-json-mca bench-json-train bench-json-refcpu bench-json-sanitize bench-guard bench-sampling clean doc quickstart

all: build

build:
	dune build @all

test:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

# Repo lint: dt_lint walks lib/ and bin/ with the Dt_analysis.Lint AST
# rules and fails on any non-whitelisted finding.  `dune runtest` runs
# it too.
lint:
	dune build @lint

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

# Full verification: the build, tier-1 (`dune runtest`: every suite
# and smoke, the lint, the fault matrix with its sanitizer cells, and
# the race-checked sampler, engine and fleet runs), then the bench
# guard.
verify: build
	dune runtest --force
	dune exec bench/main.exe -- perf-guard

bench:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

bench-full:
	dune exec bench/main.exe -- --full 2>&1 | tee bench_output.txt

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

# Sanitizer overhead rows only (the per-sequence train step with the
# graph sanitizer off and on, interleaved) -> BENCH_PR25.json, whose
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
