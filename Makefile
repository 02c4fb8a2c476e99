GO ?= go

.PHONY: check build vet lint test race bench docs-check examples-check ablate-smoke loadrig-smoke idxbench-guard live-smoke streambench-smoke pipelinebench-smoke storebench-smoke

check: build vet race

# docs-check is the documentation gate CI runs alongside check: go vet,
# the godoc comment lint over the API-bearing packages, the package-
# comment sweep over every internal/ package, and a link check on
# README.md and docs/*.md (see tools/doccheck).
docs-check: vet
	$(GO) run ./tools/doccheck

# examples-check keeps the runnable surface honest: every example
# builds, the quickstart actually runs, and every command quoted in the
# experiments playbook still parses its flags.
examples-check:
	$(GO) build ./examples/...
	$(GO) run ./examples/quickstart
	$(GO) run ./tools/doccheck -cmds docs/EXPERIMENTS.md

# ablate-smoke runs the mitigation ablation grid on a small campaign
# (every cell re-run and checked deep-equal) under a wall-clock budget;
# CI's ablation-smoke job calls this.
ablate-smoke:
	timeout 300 $(GO) run ./cmd/experiments -ablate -days 3 -clients 200 -seed 42

# loadrig-smoke drives a short fleet run over real loopback sockets
# with a server-side rate limit low enough to force 429 + Retry-After
# traffic, then validates the emitted report by re-reading it; CI's
# bench-smoke job calls this. The report goes to a temp path and is
# cleaned up — BENCH_*.json in the repo root are deliberate trajectory
# artifacts, not smoke-test droppings (see docs/EXPERIMENTS.md).
loadrig-smoke:
	out=$$(mktemp -t BENCH_loadrig.XXXXXX.json) && \
	trap 'rm -f "$$out"' EXIT && \
	timeout 120 $(GO) run ./cmd/experiments -loadrig \
		-loadrig-workers 8 -loadrig-clients 64 -loadrig-requests 200 \
		-loadrig-rate 4000 -loadrig-burst 100 -loadrig-retries 20 \
		-bench-out "$$out" && \
	$(GO) run ./tools/doccheck -bench "$$out"

# idxbench-guard benchmarks the serving-path prefix index (map-backed
# baseline vs flat open-addressing table) at CI-sized prefix counts,
# schema-validates the emitted report, and fails if the flat design's
# new/old lookup ratio regressed past the committed baseline
# (docs/BENCH_prefixtable_baseline.json) times the guard slack, if the
# flat design lost to the map outright at paper scale (1e6), or if a
# lookup allocated; CI's bench-guard job calls this.
idxbench-guard:
	out=$$(mktemp -t BENCH_prefixtable.XXXXXX.json) && \
	trap 'rm -f "$$out"' EXIT && \
	timeout 300 $(GO) run ./cmd/experiments -idxbench \
		-idxbench-sizes 100000,1000000 -idxbench-lookups 262144 \
		-bench-out "$$out" && \
	$(GO) run ./tools/doccheck -bench "$$out" \
		-bench-baseline docs/BENCH_prefixtable_baseline.json

# live-smoke is the streaming-pipeline acceptance run: a short campaign
# writes a probe store from one process while "sbanalyze -live" tails
# the same directory from another, rendering the rolling dashboard and
# exiting once the feed goes idle; a batch replay of the sealed store
# must then reproduce the live run's final snapshot byte-for-byte.
# A second leg holds the store to its order: a 10-day campaign tailed
# through a 7-day window must show 0 in the final dashboard's "late"
# column for both stages — the store hands a single-producer feed back
# in the order it was written, so nothing arrives behind the window.
# CI's live-smoke job calls this. Binaries are prebuilt so the two
# processes start (and die) cleanly under timeout.
live-smoke:
	set -e; \
	work=$$(mktemp -d -t sb-live-smoke.XXXXXX); \
	trap 'rm -rf "$$work"' EXIT; \
	$(GO) build -o "$$work/experiments" ./cmd/experiments; \
	$(GO) build -o "$$work/sbanalyze" ./cmd/sbanalyze; \
	timeout 120 "$$work/experiments" -campaign -days 3 -clients 50 -seed 42 \
		-campaign-store "$$work/store" > "$$work/campaign.log" & camp=$$!; \
	timeout 180 "$$work/sbanalyze" -live "$$work/store" \
		-refresh 1 -exit-idle 4 -follow-poll 20ms \
		-snapshot-out "$$work/live.txt" > "$$work/live.log"; \
	wait $$camp; \
	timeout 120 "$$work/sbanalyze" -probe-store "$$work/store" \
		-index "$$work/store/index.urls" -longitudinal \
		-snapshot-out "$$work/batch.txt" > /dev/null; \
	cmp "$$work/live.txt" "$$work/batch.txt"; \
	echo "live-smoke: live snapshot matches batch replay"; \
	timeout 120 "$$work/experiments" -campaign -days 10 -clients 50 -seed 42 \
		-campaign-store "$$work/store7" > "$$work/campaign7.log" & camp=$$!; \
	timeout 180 "$$work/sbanalyze" -live "$$work/store7" -window 7 \
		-refresh 1 -exit-idle 2 -follow-poll 20ms > "$$work/live7.log"; \
	wait $$camp; \
	awk '/^(reident|linkage) /{late[$$1]=$$NF} \
		END{if (!("reident" in late && "linkage" in late)) {print "live-smoke: no dashboard in the windowed run"; exit 1}; \
		for (s in late) if (late[s] != 0) {print "live-smoke: stage " s " dropped " late[s] " probes as late"; bad=1}; \
		exit bad}' "$$work/live7.log"; \
	echo "live-smoke: 7-day window over a 10-day campaign dropped nothing as late"

# streambench-smoke pumps a small captured campaign feed through the
# full streaming pipeline, then validates the emitted BENCH_stream.json
# through the strict schema reader; CI's bench-smoke job calls this.
# (The committed trajectory artifact is produced by the full run:
# experiments -streambench -clients 1000 -days 7 -bench-out ...)
streambench-smoke:
	out=$$(mktemp -t BENCH_stream.XXXXXX.json) && \
	trap 'rm -f "$$out"' EXIT && \
	timeout 300 $(GO) run ./cmd/experiments -streambench \
		-days 3 -clients 100 -seed 42 -stream-window 2 \
		-bench-out "$$out" && \
	$(GO) run ./tools/doccheck -bench "$$out"

# pipelinebench-smoke runs the streaming pipeline's two benchmarks (a
# captured campaign feed through Pipeline.Observe, ns and allocs per
# probe; Snapshot over a resident 28-day window, ns and allocs per
# snapshot) for one iteration each, so they cannot rot between the PRs
# that read them; CI's bench-smoke job calls this.
pipelinebench-smoke:
	$(GO) test -run '^$$' -bench 'PipelineObserve|PipelineSnapshot' -benchmem -benchtime 1x ./internal/stream

# storebench-smoke runs the probe store's two hot-loop benchmarks (the
# write path every probe pays, and a client-history query over bloom
# sidecars and cached segment indexes; ns, allocs and segment opens per
# operation) for one iteration each, so they cannot rot between the PRs
# that read them; CI's bench-smoke job calls this.
storebench-smoke:
	$(GO) test -run '^$$' -bench 'StoreIngest$$|ClientHistorySparse' -benchtime 1x ./internal/probestore

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the repo's invariant analyzer suite (tools/sbcheck: clock
# discipline, seeded randomness, map-order determinism, Flush/Close
# error checking, lock-scope blocking, goroutine stop paths, context
# flow, hot-path allocation budget) and go vet; CI's lint job gates on
# it. The -waiver-budget flag holds the per-analyzer count of
# sbcheck:ignore comments equal to the committed lint-waivers.txt, so a
# new suppression takes a reviewed edit to that file and a removed one
# lowers its line in the same PR.
lint:
	$(GO) run ./tools/sbcheck -waiver-budget lint-waivers.txt ./...
	$(GO) vet ./...

test:
	$(GO) test -vet=all ./...

race:
	$(GO) test -race -vet=all ./...

bench:
	$(GO) test -run xxx -bench 'ServerConcurrent|AblationServerSeedDesign' -cpu=1,8 -benchmem .
