.PHONY: all build test dead-surface line-delta bench-pairs faults-smoke profile-smoke telemetry-smoke engine-smoke sched-smoke resume-smoke cli-smoke alloc-smoke perf-smoke bench-json bench-gate ci clean

all: build

build:
	dune build @all

test:
	dune runtest

# No exported value without a caller: every `val` in lib/**/*.mli must
# be used somewhere outside its own module (tests count) or inside it
# beyond its definition.  Prints each dead value and fails if any.
dead-surface:
	sh tools/dead_surface.sh

# Net line delta against a base revision, split into lib/, test/ and
# everything else (ISSUE.md and CHANGES.md excluded); not part of ci.
#   make line-delta BASE=<ref>
line-delta:
	sh tools/line_delta.sh $(BASE)

# Alternating-order perfbench pairs of a base revision against the
# working tree: each end-to-end metric's median, IQR and how many
# pairs the working tree won; not part of ci.
#   make bench-pairs BASE=<ref> WORKLOAD=<name> PAIRS=<n>
PAIRS ?= 8
bench-pairs:
	sh tools/bench_pairs.sh $(BASE) $(WORKLOAD) $(PAIRS)

# End-to-end smoke of the stress campaign: must exit 0 with every
# campaign check passing (grep fails the target on any [FAIL] line).
faults-smoke:
	dune exec bin/repro.exe -- faults --seed 42 --standard bluetooth | tee /tmp/faults-smoke.out
	! grep -q '\[FAIL\]' /tmp/faults-smoke.out

# The profiling workload must exercise every instrumented layer: at
# least 8 distinct span rows between the summary header and the
# counters section, including one from each of rfchain, sigkit,
# metrics, calibration and attacks.
profile-smoke:
	dune exec bin/repro.exe -- profile --seed 42 --standard bluetooth | tee /tmp/profile-smoke.out
	test $$(sed -n '/^span /,/^counters/p' /tmp/profile-smoke.out | grep -c '^[a-z]') -ge 8
	grep -q '^sdm\.' /tmp/profile-smoke.out
	grep -q '^fft\.' /tmp/profile-smoke.out
	grep -q '^measure\.' /tmp/profile-smoke.out
	grep -q '^calibrate\.' /tmp/profile-smoke.out
	grep -q '^attack\.' /tmp/profile-smoke.out

# Telemetry must observe without perturbing: the instrumented run's
# figure output must be byte-identical to the plain run, the golden
# calibration numbers must not drift, and the emitted Chrome trace
# must contain complete ("ph":"X") span events.
telemetry-smoke:
	dune exec bin/repro.exe -- fig8 --seed 42 --standard bluetooth > /tmp/fig8-plain.out
	grep -q 'SNR(mod) 43.1 dB, SNR(rx) 41.8 dB, SFDR 35.0 dB' /tmp/fig8-plain.out
	dune exec bin/repro.exe -- fig8 --seed 42 --standard bluetooth \
	  --metrics --trace fig8.trace.json > /tmp/fig8-metrics.out
	head -n $$(wc -l < /tmp/fig8-plain.out) /tmp/fig8-metrics.out | cmp - /tmp/fig8-plain.out
	grep -q '"traceEvents"' fig8.trace.json
	grep -q '"ph":"X"' fig8.trace.json

# The evaluation engine must not perturb results: the same figure run
# on the Domains backend (and with the cache disabled) must be
# byte-identical to the sequential cached run.  fig10 rides along so a
# spectral (periodogram-heavy) workload crosses the pool too — its
# workspace arenas are domain-local and must not leak state between
# lanes.
engine-smoke:
	dune exec bin/repro.exe -- fig7 --fast --seed 42 --standard bluetooth --jobs 1 > /tmp/fig7-jobs1.out
	dune exec bin/repro.exe -- fig7 --fast --seed 42 --standard bluetooth --jobs 2 > /tmp/fig7-jobs2.out
	cmp /tmp/fig7-jobs1.out /tmp/fig7-jobs2.out
	dune exec bin/repro.exe -- fig7 --fast --seed 42 --standard bluetooth --jobs 4 --no-cache > /tmp/fig7-jobs4.out
	cmp /tmp/fig7-jobs1.out /tmp/fig7-jobs4.out
	dune exec bin/repro.exe -- fig10 --seed 42 --standard bluetooth --jobs 1 > /tmp/fig10-jobs1.out
	dune exec bin/repro.exe -- fig10 --seed 42 --standard bluetooth --jobs 4 > /tmp/fig10-jobs4.out
	cmp /tmp/fig10-jobs1.out /tmp/fig10-jobs4.out

# The pool's scheduling (which lane claims which chunk) must be
# invisible in the results: a full campaign report (JSON, covering
# the grid cells, flip probes and demos) must be byte-identical across
# the whole jobs sweep, including the 8-lane oversubscribed case, and fig7 must match
# at --jobs 8 (engine-smoke covers 1/2/4).
sched-smoke: build
	./_build/default/bin/repro.exe fig7 --fast --seed 42 --standard bluetooth --jobs 1 > /tmp/sched-fig7-jobs1.out
	./_build/default/bin/repro.exe fig7 --fast --seed 42 --standard bluetooth --jobs 8 > /tmp/sched-fig7-jobs8.out
	cmp /tmp/sched-fig7-jobs1.out /tmp/sched-fig7-jobs8.out
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json --jobs 1 > /tmp/sched-jobs1.out
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json --jobs 2 > /tmp/sched-jobs2.out
	cmp /tmp/sched-jobs1.out /tmp/sched-jobs2.out
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json --jobs 4 > /tmp/sched-jobs4.out
	cmp /tmp/sched-jobs1.out /tmp/sched-jobs4.out
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json --jobs 8 > /tmp/sched-jobs8.out
	cmp /tmp/sched-jobs1.out /tmp/sched-jobs8.out
	# Interrupt mid-stream: with the whole grid in flight the report
	# must still cut at exactly the k-th delivered cell, byte-identically
	# at every lane count (exit 130 = interrupted, as SIGINT would be).
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json --interrupt-after 7 --jobs 1 > /tmp/sched-int-jobs1.out; test $$? -eq 130
	grep -q '"completed_cells":7' /tmp/sched-int-jobs1.out
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json --interrupt-after 7 --jobs 4 > /tmp/sched-int-jobs4.out; test $$? -eq 130
	cmp /tmp/sched-int-jobs1.out /tmp/sched-int-jobs4.out
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json --interrupt-after 7 --jobs 8 > /tmp/sched-int-jobs8.out; test $$? -eq 130
	cmp /tmp/sched-int-jobs1.out /tmp/sched-int-jobs8.out

# Crash-safe resume: journal a campaign to a checkpoint, SIGINT it
# mid-flight, resume from the journal, and require the resumed report
# to be byte-identical to an uninterrupted run, at --jobs 1 and 2.
# The interrupted run may legitimately finish before the signal lands
# (exit 0); what must never happen is a corrupt journal or a drifted
# resumed report.  A hand-corrupted journal must be refused cleanly.
resume-smoke: build
	rm -f /tmp/resume.ckpt.jsonl
	dune exec bin/repro.exe -- faults --seed 42 --standard bluetooth --json > /tmp/resume-fresh.out
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json \
	  --checkpoint /tmp/resume.ckpt.jsonl > /tmp/resume-interrupted.out & \
	pid=$$!; sleep 1; kill -INT $$pid 2>/dev/null || true; \
	wait $$pid; status=$$?; test $$status -eq 130 -o $$status -eq 0
	grep -q '"type":"cell"' /tmp/resume.ckpt.jsonl
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json \
	  --checkpoint /tmp/resume.ckpt.jsonl --resume > /tmp/resume-resumed.out
	cmp /tmp/resume-fresh.out /tmp/resume-resumed.out
	# Same again on a pooled engine: pooled batches journal on the main
	# domain as results are delivered, so the cut lands elsewhere.
	rm -f /tmp/resume-jobs2.ckpt.jsonl
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json --jobs 2 \
	  --checkpoint /tmp/resume-jobs2.ckpt.jsonl > /tmp/resume-jobs2-interrupted.out & \
	pid=$$!; sleep 1; kill -INT $$pid 2>/dev/null || true; \
	wait $$pid; status=$$?; test $$status -eq 130 -o $$status -eq 0
	grep -q '"type":"cell"' /tmp/resume-jobs2.ckpt.jsonl
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json --jobs 2 \
	  --checkpoint /tmp/resume-jobs2.ckpt.jsonl --resume > /tmp/resume-jobs2-resumed.out
	cmp /tmp/resume-fresh.out /tmp/resume-jobs2-resumed.out
	# A journal whose interior record is corrupt must refuse to resume
	# with the typed error and exit 2, never an uncaught exception.
	printf '%s\n' '{"type":"journal","version":1}' \
	  '{"type":"cell","key":"x","snr_mod":"0x1p+0","snr_rx":"0x1p+0","sfdr":null,"cost":-}' \
	  '{"type":"cell","key":"y","snr_mod":"0x1p+0","snr_rx":"0x1p+0","sfdr":null,"cost":1}' \
	  > /tmp/resume-corrupt.ckpt.jsonl
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json \
	  --checkpoint /tmp/resume-corrupt.ckpt.jsonl --resume > /dev/null 2> /tmp/resume-corrupt.err; \
	test $$? -eq 2
	grep -q 'corrupt at line 2' /tmp/resume-corrupt.err
	# A run cut by --deadline (typed exit 3) leaves a non-empty journal
	# that a resumed run without a deadline completes byte-identically,
	# at --jobs 1 and 2.  On a 2-core host the 0.2 s cut lands inside
	# lot calibration, about a third of the way through a 0.7 s run, so
	# a faster host still exits 3.  Cells cut mid-campaign are covered
	# by the SIGINT legs above and sched-smoke's --interrupt-after legs.
	rm -f /tmp/resume-deadline-jobs1.ckpt.jsonl /tmp/resume-deadline-jobs2.ckpt.jsonl
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json --jobs 1 --deadline 0.2 \
	  --checkpoint /tmp/resume-deadline-jobs1.ckpt.jsonl > /dev/null 2>&1; test $$? -eq 3
	grep -q '"type":"cell"' /tmp/resume-deadline-jobs1.ckpt.jsonl
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json --jobs 1 \
	  --checkpoint /tmp/resume-deadline-jobs1.ckpt.jsonl --resume > /tmp/resume-deadline-jobs1.out
	cmp /tmp/resume-fresh.out /tmp/resume-deadline-jobs1.out
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json --jobs 2 --deadline 0.2 \
	  --checkpoint /tmp/resume-deadline-jobs2.ckpt.jsonl > /dev/null 2>&1; test $$? -eq 3
	grep -q '"type":"cell"' /tmp/resume-deadline-jobs2.ckpt.jsonl
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json --jobs 2 \
	  --checkpoint /tmp/resume-deadline-jobs2.ckpt.jsonl --resume > /tmp/resume-deadline-jobs2.out
	cmp /tmp/resume-fresh.out /tmp/resume-deadline-jobs2.out

# CLI error paths must fail fast with the documented status.  Run
# under timeout so a reintroduced keep-alive (module-load domain,
# at_exit hook) turns into a visible kill, and require exit 2 for
# parse errors — NOT cmdliner's default 124, which collides with
# timeout(1)'s kill status and made parse errors read as hangs
# (ROADMAP: "CLI parse-error hang").
cli-smoke: build
	timeout 10 ./_build/default/bin/repro.exe nosuchcmd > /dev/null 2>&1; test $$? -eq 2
	timeout 10 ./_build/default/bin/repro.exe fig7 --no-such-flag > /dev/null 2>&1; test $$? -eq 2
	timeout 10 ./_build/default/bin/repro.exe --help > /dev/null 2>&1; test $$? -eq 0
	# One deadline for every command: the campaign turns it into its
	# typed error, any other command stops at its next poll; both exit 3.
	timeout 60 ./_build/default/bin/repro.exe faults --dies 1 --seed 42 --standard bluetooth \
	  --deadline 0.1 > /dev/null 2> /tmp/cli-deadline-faults.err; test $$? -eq 3
	grep -Eq 'deadline of 0\.1s exceeded after [0-9]+ of [0-9]+ cells; partial results journalled' \
	  /tmp/cli-deadline-faults.err
	timeout 60 ./_build/default/bin/repro.exe fig7 --fast --deadline 0.05 > /dev/null \
	  2> /tmp/cli-deadline-fig7.err; test $$? -eq 3
	grep -q 'interrupted: deadline' /tmp/cli-deadline-fig7.err
	# --manifest writes the run-provenance record at exit: the engine
	# hash, the seed parsed back out of argv and the exit status.
	rm -f /tmp/cli-manifest.json
	timeout 60 ./_build/default/bin/repro.exe faults --dies 1 --seed 42 --standard bluetooth \
	  --manifest /tmp/cli-manifest.json > /dev/null 2>&1
	grep -Eq '"engine_hash":"[0-9a-f]{32}"' /tmp/cli-manifest.json
	grep -q '"seed":42' /tmp/cli-manifest.json
	grep -q '"exit_status":0' /tmp/cli-manifest.json

# Steady-state allocation contract (DESIGN §15): the arena-converted
# kernels carry absolute minor-words budgets (lib/benchkit alloc
# budgets) checked by the bench executable itself — a reintroduced
# per-stage copy of even one record buffer fails the run with exit 4.
# Budgets are baseline-free; the --compare leg additionally holds the
# converted kernels to the tightened slack against BENCH_4.json.
alloc-smoke: build
	./_build/default/bench/main.exe --fast --only engine: \
	  --out /tmp/alloc-smoke.json --compare BENCH_4.json \
	  > /tmp/alloc-smoke.out 2>&1 || { cat /tmp/alloc-smoke.out; exit 1; }
	grep -q 'budgets: PASS' /tmp/alloc-smoke.out
	grep -q 'gate: PASS' /tmp/alloc-smoke.out

# The repository benchmark, traced, as a correctness gate: every
# measurement's digest against perfbench/reference.tsv, the exact work
# counts, the stage ledger's closure (<= 10% of Receiver.run outside
# the stage spans) and the replica/engine bit-exactness all have to
# hold, so each run must end with "correct": true and "failed": 0.
# The attack workload is the only one that runs verified-SNR bundles
# and unclocked oracle candidates, so it checks the capture order of
# Measure.snr_mod_verified_db and the memoised comparator jitter.
# The held-out-die legs (--input-seed 7) have no recorded reference:
# there the traced run's three passes must agree with each other,
# although the workspace's slot 13 (the test tone or an admitted ΣΔ
# drive) carries over from one pass to the next.
perf-smoke:
	bash perfbench/run.sh --workload key-sweep --seed 0 --trace 1 > /tmp/perf-smoke-key-sweep.out
	tail -n 1 /tmp/perf-smoke-key-sweep.out | grep -q '"correct": true, "attempted": [0-9]*, "failed": 0,'
	bash perfbench/run.sh --workload campaign --seed 0 --trace 1 > /tmp/perf-smoke-campaign.out
	tail -n 1 /tmp/perf-smoke-campaign.out | grep -q '"correct": true, "attempted": [0-9]*, "failed": 0,'
	bash perfbench/run.sh --workload attack --seed 0 --trace 1 > /tmp/perf-smoke-attack.out
	tail -n 1 /tmp/perf-smoke-attack.out | grep -q '"correct": true, "attempted": [0-9]*, "failed": 0,'
	bash perfbench/run.sh --workload key-sweep --input-seed 7 --trace 1 > /tmp/perf-smoke-key-sweep-7.out
	tail -n 1 /tmp/perf-smoke-key-sweep-7.out | grep -q '"correct": true, "attempted": [0-9]*, "failed": 0,'
	bash perfbench/run.sh --workload campaign --input-seed 7 --trace 1 > /tmp/perf-smoke-campaign-7.out
	tail -n 1 /tmp/perf-smoke-campaign-7.out | grep -q '"correct": true, "attempted": [0-9]*, "failed": 0,'

# Perf trajectory: re-measure the Bechamel kernels and rewrite
# BENCH_4.json (full quota; commit the result).
bench-json:
	dune exec bench/main.exe -- --out BENCH_4.json

# Regression gate: re-measure at the fast quota and compare against the
# committed baseline; any kernel blowing past its tolerance (or a
# kernel that silently stopped running) fails the build (exit 4).
bench-gate:
	dune exec bench/main.exe -- --fast \
	  --out /tmp/bench-gate.json --compare BENCH_4.json

ci: build test dead-surface cli-smoke faults-smoke profile-smoke telemetry-smoke engine-smoke sched-smoke resume-smoke alloc-smoke perf-smoke bench-gate

clean:
	dune clean
