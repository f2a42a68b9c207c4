SMOKE_DIR := _build/smoke
BIN := _build/default/bin

.PHONY: all check build test chaos-smoke obs-smoke pgo-smoke lint bench clean

all: build

build:
	dune build @all

test:
	dune runtest

# Build and run the full test suite, which drives every binary end to
# end (test/test_cli.ml), then the shell gates that remain.
check: build test lint chaos-smoke obs-smoke pgo-smoke

# Static consistency gate: proflint must pass the intact fixture
# profiles (whole-run gmon, epoch container, and the paper's Figure 4)
# and must refuse a profile paired with the wrong build.
lint: build
	mkdir -p $(SMOKE_DIR)
	dune exec bin/minic.exe -- test/fixtures/smoke.mini --pg -o $(SMOKE_DIR)/lint.obj
	dune exec bin/minirun.exe -- $(SMOKE_DIR)/lint.obj -q \
	  --gmon $(SMOKE_DIR)/lint.gmon --epoch-ticks 4 --epochs $(SMOKE_DIR)/lint.epochs
	dune exec bin/proflint.exe -- $(SMOKE_DIR)/lint.obj \
	  $(SMOKE_DIR)/lint.gmon $(SMOKE_DIR)/lint.epochs
	dune exec bin/proflint.exe -- --figure4
	# smoke_mismatched.mini declares the same routines in a different
	# order, so smoke's call sites land mid-function there. Linting
	# the pairing must find errors (exit 2), not pass silently.
	dune exec bin/minic.exe -- test/fixtures/smoke_mismatched.mini --pg \
	  -o $(SMOKE_DIR)/lint_mismatched.obj
	code=0; dune exec bin/proflint.exe -- $(SMOKE_DIR)/lint_mismatched.obj \
	  $(SMOKE_DIR)/lint.gmon > /dev/null || code=$$?; \
	  if [ $$code -ne 2 ]; then \
	    echo "lint: mismatched pairing exited $$code, want 2"; exit 1; fi
	# the dataflow-backed rules over the remaining fixture
	dune exec bin/minic.exe -- test/fixtures/smoke_slow.mini --pg \
	  -o $(SMOKE_DIR)/lint_slow.obj
	dune exec bin/minirun.exe -- $(SMOKE_DIR)/lint_slow.obj -q \
	  --gmon $(SMOKE_DIR)/lint_slow.gmon
	dune exec bin/proflint.exe -- $(SMOKE_DIR)/lint_slow.obj \
	  $(SMOKE_DIR)/lint_slow.gmon
	# the machine-readable report must be deterministic: two runs over
	# the same inputs are byte-identical. The first stays as the CI
	# artifact (lint-report.json).
	dune exec bin/proflint.exe -- $(SMOKE_DIR)/lint.obj \
	  $(SMOKE_DIR)/lint.gmon $(SMOKE_DIR)/lint.epochs --json \
	  > $(SMOKE_DIR)/lint-report.json
	dune exec bin/proflint.exe -- $(SMOKE_DIR)/lint.obj \
	  $(SMOKE_DIR)/lint.gmon $(SMOKE_DIR)/lint.epochs --json \
	  > $(SMOKE_DIR)/lint-report.2.json
	cmp $(SMOKE_DIR)/lint-report.json $(SMOKE_DIR)/lint-report.2.json
	rm -f $(SMOKE_DIR)/lint-report.2.json
	@echo "lint: ok (intact fixtures clean, mismatched pairing refused, json deterministic)"

# Chaos gate: the fleet pipeline under deterministic fault injection.
# Phase 1 — a clean daemon, hostile clients: submissions arrive through
# seeded torn frames, short reads, resets, and latency (retries carry
# submission ids, so the daemon's dedup window keeps the count exact);
# the daemon is kill -9'd racing a compaction and must recover; a hung
# peer (half a length prefix, then silence) must not stall other
# clients and must be cut at the IO deadline. Phase 2 — a store that
# refuses 60% of appends: the bounded queue sheds with BUSY, clients
# spool locally, --drain-spool resubmits, and the books must balance
# exactly (submitted = stored + quarantined + spooled-then-drained).
# Both phases end with the daemon's merged report byte-identical (cmp)
# to profd --merge-offline of the same runs.
CHAOS := $(SMOKE_DIR)/chaos

chaos-smoke: build
	rm -rf $(CHAOS); mkdir -p $(CHAOS)/spool
	$(BIN)/minic.exe test/fixtures/smoke.mini --pg -o $(CHAOS)/smoke.obj
	set -e; for s in 1 2 3 4; do \
	  $(BIN)/minirun.exe $(CHAOS)/smoke.obj -q --seed $$s \
	    --gmon $(CHAOS)/run-$$s.gmon; \
	done
	head -c 90 $(CHAOS)/run-1.gmon > $(CHAOS)/corrupt.gmon
	# --- phase 1: hostile clients against a clean daemon ---
	$(BIN)/profd.exe --serve --socket $(CHAOS)/a.sock \
	  --store $(CHAOS)/store-a --batch 2 --conn-timeout 2 \
	  --obs-metrics $(CHAOS)/profd-a.metrics \
	  2> $(CHAOS)/profd-a.log & echo $$! > $(CHAOS)/a.pid
	$(BIN)/profd.exe --socket $(CHAOS)/a.sock --wait --timeout 30
	PROFD_FAULTS="seed=5,short=0.5,torn=0.5,reset=0.1,latency=0.1,delay_ms=1" \
	  $(BIN)/profd.exe --socket $(CHAOS)/a.sock --retries 12 \
	  --submit $(CHAOS)/run-1.gmon $(CHAOS)/run-2.gmon > /dev/null
	$(BIN)/minirun.exe $(CHAOS)/smoke.obj -q --seed 3 \
	  --submit $(CHAOS)/a.sock --submit-label run-3
	$(BIN)/profd.exe --socket $(CHAOS)/a.sock --flush
	# kill -9 racing a compaction: wherever the daemon dies, restart
	# recovery must preserve every flushed profile
	$(BIN)/profd.exe --socket $(CHAOS)/a.sock --compact > /dev/null 2>&1 & \
	  kill -9 $$(cat $(CHAOS)/a.pid)
	$(BIN)/profd.exe --serve --socket $(CHAOS)/a.sock \
	  --store $(CHAOS)/store-a --batch 2 --conn-timeout 2 \
	  --obs-metrics $(CHAOS)/profd-a.metrics \
	  2>> $(CHAOS)/profd-a.log & echo $$! > $(CHAOS)/a.pid
	$(BIN)/profd.exe --socket $(CHAOS)/a.sock --wait --timeout 30
	# more hostile-client traffic against the recovered daemon, so its
	# own metrics must account for the torn connections
	PROFD_FAULTS="seed=5,short=0.5,torn=0.5,reset=0.1,latency=0.1,delay_ms=1" \
	  $(BIN)/profd.exe --socket $(CHAOS)/a.sock --retries 12 \
	  --submit $(CHAOS)/run-4.gmon > /dev/null
	# a corrupt submission is quarantined (client exit 2), never dropped
	code=0; $(BIN)/profd.exe --socket $(CHAOS)/a.sock \
	  --submit $(CHAOS)/corrupt.gmon > /dev/null || code=$$?; \
	  if [ $$code -ne 2 ]; then \
	    echo "chaos-smoke: corrupt submission exited $$code, want 2"; exit 1; fi
	# a hung peer must not stall the daemon, and is cut at the deadline
	set -e; python3 -c 'import socket,sys,time; s=socket.socket(socket.AF_UNIX); \
	    s.connect(sys.argv[1]); s.send(b"\x08\x00"); time.sleep(4)' \
	    $(CHAOS)/a.sock & slow=$$!; \
	  sleep 0.3; timeout 5 $(BIN)/profd.exe --socket $(CHAOS)/a.sock --flush; \
	  sleep 2.2; kill $$slow 2> /dev/null || true
	# equivalence + accounting: 4 runs in, 4 stored, 1 quarantined
	$(BIN)/profd.exe --socket $(CHAOS)/a.sock --flush --compact
	$(BIN)/profd.exe --socket $(CHAOS)/a.sock \
	  --query report --out $(CHAOS)/daemon-a.gmon
	$(BIN)/profd.exe --merge-offline $(CHAOS)/offline-a.gmon \
	  $(CHAOS)/run-1.gmon $(CHAOS)/run-2.gmon \
	  $(CHAOS)/run-3.gmon $(CHAOS)/run-4.gmon
	cmp $(CHAOS)/daemon-a.gmon $(CHAOS)/offline-a.gmon
	$(BIN)/profd.exe --socket $(CHAOS)/a.sock --query stats \
	  | grep -q '"total_runs":4'
	$(BIN)/profd.exe --socket $(CHAOS)/a.sock --query stats \
	  | grep -q '"quarantined":1'
	$(BIN)/profd.exe --socket $(CHAOS)/a.sock --shutdown
	set -e; for i in $$(seq 1 50); do \
	  test -s $(CHAOS)/profd-a.metrics && break; sleep 0.1; done
	grep -Eq '"profd.conn.deadline_closed":[1-9]' $(CHAOS)/profd-a.metrics
	grep -Eq '"profd.conn.torn":[1-9]' $(CHAOS)/profd-a.metrics
	# --- phase 2: a store that refuses 60% of appends ---
	# local reference copies double as submissions (same seed, same run)
	$(BIN)/minirun.exe $(CHAOS)/smoke.obj -q --seed 20 \
	  --gmon $(CHAOS)/burst-20.gmon \
	  --submit $(CHAOS)/nosuch.sock --submit-retries 2 --spool $(CHAOS)/spool
	ls $(CHAOS)/spool/sp-*.spool > /dev/null
	PROFD_FAULTS="seed=3,storefail=0.6" $(BIN)/profd.exe --serve \
	  --socket $(CHAOS)/c.sock --store $(CHAOS)/store-c \
	  --batch 1 --queue-cap 2 --retry-after 0.05 \
	  --obs-metrics $(CHAOS)/profd-c.metrics \
	  2> $(CHAOS)/profd-c.log & echo $$! > $(CHAOS)/c.pid
	$(BIN)/profd.exe --socket $(CHAOS)/c.sock --wait --timeout 30
	# overload burst: accepted, or answered BUSY and spooled — never lost
	set -e; for s in 10 11 12 13 14 15; do \
	  $(BIN)/minirun.exe $(CHAOS)/smoke.obj -q --seed $$s \
	    --gmon $(CHAOS)/burst-$$s.gmon --submit $(CHAOS)/c.sock \
	    --submit-label burst --submit-retries 2 --spool $(CHAOS)/spool; \
	done
	# drain the spool and flush until the flaky store has taken everything
	set -e; for i in $$(seq 1 100); do \
	  if $(BIN)/profd.exe --socket $(CHAOS)/c.sock \
	    --drain-spool $(CHAOS)/spool --retries 8 > /dev/null; then break; fi; \
	  sleep 0.2; done
	test -z "$$(ls $(CHAOS)/spool 2> /dev/null | grep '\.spool$$')"
	set -e; for i in $$(seq 1 100); do \
	  if $(BIN)/profd.exe --socket $(CHAOS)/c.sock --flush > /dev/null; \
	    then break; fi; sleep 0.2; done
	$(BIN)/profd.exe --socket $(CHAOS)/c.sock --query stats \
	  | grep -q '"pending":0'
	# the books balance: 7 submitted = 7 stored + 0 quarantined + 0 spooled
	$(BIN)/profd.exe --socket $(CHAOS)/c.sock --query stats \
	  | grep -q '"total_runs":7'
	$(BIN)/profd.exe --socket $(CHAOS)/c.sock --query stats \
	  | grep -q '"quarantined":0'
	$(BIN)/profd.exe --socket $(CHAOS)/c.sock --compact
	$(BIN)/profd.exe --socket $(CHAOS)/c.sock \
	  --query report --out $(CHAOS)/daemon-c.gmon
	$(BIN)/profd.exe --merge-offline $(CHAOS)/offline-c.gmon \
	  $(CHAOS)/burst-10.gmon $(CHAOS)/burst-11.gmon $(CHAOS)/burst-12.gmon \
	  $(CHAOS)/burst-13.gmon $(CHAOS)/burst-14.gmon $(CHAOS)/burst-15.gmon \
	  $(CHAOS)/burst-20.gmon
	cmp $(CHAOS)/daemon-c.gmon $(CHAOS)/offline-c.gmon
	# graceful drain on SIGTERM: the daemon announces it, then exits
	set -e; kill -TERM $$(cat $(CHAOS)/c.pid); \
	  for i in $$(seq 1 100); do \
	    kill -0 $$(cat $(CHAOS)/c.pid) 2> /dev/null || break; sleep 0.1; done; \
	  if kill -0 $$(cat $(CHAOS)/c.pid) 2> /dev/null; then \
	    echo "chaos-smoke: daemon ignored SIGTERM"; exit 1; fi
	grep -q "draining" $(CHAOS)/profd-c.log
	@echo "chaos-smoke: ok (faulty clients, kill -9 recovery, slowloris cut, overload/spool/drain, books balanced, daemon == offline merge)"

# Live-telemetry gate: a daemon under fault-plane latency injection,
# watched from outside. proftop --once --json must return well-formed
# health with nonzero per-verb RPC counts; the injected 15 ms delay
# must be visible in the profd.rpc.submit.latency buckets; the diff of
# two consecutive metrics snapshots must equal exactly the RPCs issued
# between them; and the --telemetry-out JSONL series must verify
# (checksums, monotonic seq, monotonic counters).
OBS := $(SMOKE_DIR)/obs

obs-smoke: build
	rm -rf $(OBS); mkdir -p $(OBS)
	$(BIN)/minic.exe test/fixtures/smoke.mini --pg -o $(OBS)/smoke.obj
	set -e; for s in 1 2; do \
	  $(BIN)/minirun.exe $(OBS)/smoke.obj -q --seed $$s \
	    --gmon $(OBS)/run-$$s.gmon; \
	done
	PROFD_FAULTS="seed=11,latency=1.0,delay_ms=15" \
	  $(BIN)/profd.exe --serve --socket $(OBS)/profd.sock \
	  --store $(OBS)/store --batch 1 \
	  --telemetry-out $(OBS)/telemetry.jsonl --telemetry-interval 0.2 \
	  --log $(OBS)/events.jsonl --obs-metrics $(OBS)/profd.metrics \
	  2> $(OBS)/profd.log & echo $$! > $(OBS)/profd.pid
	$(BIN)/profd.exe --socket $(OBS)/profd.sock --wait --timeout 30
	# snapshot A — exactly four RPCs — snapshot B
	$(BIN)/proftop.exe --socket $(OBS)/profd.sock --once --json > $(OBS)/a.json
	$(BIN)/profd.exe --socket $(OBS)/profd.sock \
	  --submit $(OBS)/run-1.gmon $(OBS)/run-2.gmon > /dev/null
	$(BIN)/profd.exe --socket $(OBS)/profd.sock --query stats > /dev/null
	$(BIN)/proftop.exe --socket $(OBS)/profd.sock --once --json > $(OBS)/b.json
	# well-formed health, nonzero rpc counts, injected latency visible
	python3 -c 'import json,sys; \
	  d = json.load(open(sys.argv[1])); \
	  h = d["health"]; \
	  assert h["version"] and h["pid"] > 0 and float(h["uptime"]) > 0, "health malformed"; \
	  assert h["queue"]["cap"] > 0 and h["conns"]["max"] > 0, "health malformed"; \
	  assert h["store"]["shards"] > 0 and len(h["store"]["per_shard"]) == h["store"]["shards"], "per-shard missing"; \
	  rpc = d["derived"]["rpc"]; \
	  assert rpc["submit"]["count"] >= 2 and rpc["metrics"]["count"] >= 1, "rpc counts missing"; \
	  sub = d["metrics"]["histograms"]["profd.rpc.submit.latency"]; \
	  slow = sum(b["count"] for b in sub["buckets"] if b["lo"] >= 8192); \
	  assert slow >= 2, "injected 15ms delay not visible in latency buckets"; \
	  assert sub["max"] >= 15000, "latency max below the injected delay"' \
	  $(OBS)/b.json
	# diff exactness: health(A) + 2 submits + stats + metrics(B) = 5
	$(BIN)/proftop.exe --diff $(OBS)/a.json $(OBS)/b.json > $(OBS)/diff.json
	python3 -c 'import json,sys; \
	  d = json.load(open(sys.argv[1]))["counters"]; \
	  assert d["profd.requests"] == 5, "request delta %d != 5" % d["profd.requests"]; \
	  assert d["ingest.submitted"] == 2, "submit delta wrong"' \
	  $(OBS)/diff.json
	# drain; the final telemetry record lands before the process exits
	$(BIN)/profd.exe --socket $(OBS)/profd.sock --retries 8 --shutdown > /dev/null
	set -e; for i in $$(seq 1 100); do \
	  kill -0 $$(cat $(OBS)/profd.pid) 2> /dev/null || break; sleep 0.1; done; \
	  if kill -0 $$(cat $(OBS)/profd.pid) 2> /dev/null; then \
	    echo "obs-smoke: daemon ignored SHUTDOWN"; exit 1; fi
	# the structured event log carries the lifecycle
	grep -q '"event":"serve.start"' $(OBS)/events.jsonl
	grep -q '"event":"draining"' $(OBS)/events.jsonl
	grep -q '"event":"drain.done"' $(OBS)/events.jsonl
	# the time-series verifies: checksums, monotonic seq and counters
	$(BIN)/proftop.exe --telemetry $(OBS)/telemetry.jsonl --json \
	  | grep -q '"ok":true'
	@echo "obs-smoke: ok (health/metrics RPCs, injected latency visible, exact snapshot diff, telemetry series verified)"

# Profile-guided-optimization gate: close the loop from the CLI alone.
# Profile a workload, rebuild it with --profile-use, and hold the
# rebuild to its promises: strictly fewer executed instructions, a
# byte-deterministic decision log and binary, and a binary that still
# profiles cleanly — both against its own fresh profile and under the
# pgo pairing rules against the baseline it came from.
PGO := $(SMOKE_DIR)/pgo

pgo-smoke: build
	rm -rf $(PGO); mkdir -p $(PGO)
	$(BIN)/minic.exe test/fixtures/pgo_matrix.mini --pg -o $(PGO)/base.obj
	$(BIN)/minirun.exe $(PGO)/base.obj -q --gmon $(PGO)/base.gmon \
	  --obs-metrics $(PGO)/base.metrics
	# the rebuild and its decision log must be deterministic: two runs,
	# byte-identical artifacts (decisions.txt stays as the CI artifact)
	$(BIN)/minic.exe test/fixtures/pgo_matrix.mini --pg \
	  --profile-use $(PGO)/base.gmon --pgo-report \
	  -o $(PGO)/opt.obj > $(PGO)/decisions.txt
	$(BIN)/minic.exe test/fixtures/pgo_matrix.mini --pg \
	  --profile-use $(PGO)/base.gmon --pgo-report \
	  -o $(PGO)/opt.2.obj > $(PGO)/decisions.2.txt
	cmp $(PGO)/opt.obj $(PGO)/opt.2.obj
	cmp $(PGO)/decisions.txt $(PGO)/decisions.2.txt
	rm -f $(PGO)/opt.2.obj $(PGO)/decisions.2.txt
	$(BIN)/minirun.exe $(PGO)/opt.obj -q --gmon $(PGO)/opt.gmon \
	  --obs-metrics $(PGO)/opt.metrics
	# the whole point: the optimized build executes strictly fewer
	# instructions on the workload its profile came from
	python3 -c 'import json,sys; \
	  base = json.load(open(sys.argv[1]))["gauges"]["vm.instructions"]; \
	  opt = json.load(open(sys.argv[2]))["gauges"]["vm.instructions"]; \
	  assert opt < base, "pgo build not faster: %d -> %d instructions" % (base, opt); \
	  print("pgo-smoke: %d -> %d instructions (%.1f%%)" % (base, opt, 100.0*(opt-base)/base))' \
	  $(PGO)/base.metrics $(PGO)/opt.metrics
	# the rebuild still profiles cleanly, and the pairing rules accept
	# it as a rebuild of the baseline
	$(BIN)/proflint.exe $(PGO)/opt.obj $(PGO)/opt.gmon \
	  --pgo-baseline $(PGO)/base.obj
	@echo "pgo-smoke: ok (rebuild faster, decisions deterministic, re-profile lints clean)"

bench:
	dune exec bench/main.exe

clean:
	dune clean
