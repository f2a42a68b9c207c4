SMOKE_DIR := _build/smoke
BIN := _build/default/bin

.PHONY: all check build test obs-smoke lint bench clean

all: build

build:
	dune build @all

test:
	dune runtest

# Build and run the full test suite, which drives every binary end to
# end (test/test_cli.ml), then the shell gates that remain.
check: build test lint obs-smoke

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

bench:
	dune exec bench/main.exe

clean:
	dune clean
