GO ?= go

.PHONY: build test check bench bench-json

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The strict gate: vet; a formatting guard (`gofmt -l internal cmd
# examples *.go` must print nothing); a guard that every atomic replace in non-test
# code goes through internal/atomicfile (no other os.Rename or
# os.CreateTemp); a guard that non-test code fsyncs only there and in
# the apply journal's group commit (internal/channel/state.go), so a new
# fsync is a declared durability choice; a guard that non-test code
# makes and installs artifact stores only in internal/srctree (tools go
# through srctree.UseDiskStore) and the channel blob cache
# (internal/channel/blobcache.go), so there is one build path; vet and the short tests of the bench module, so an
# internal API change that breaks the benchmark harness fails here
# rather than in the benchmark run; the full test suite under the race
# detector — among
# it the telemetry hammer, the store/unit-cache/parallel-build races,
# both create determinism guards, the chaos soak (the whole 64-CVE
# corpus served over faulty HTTP to concurrent subscribers with
# fleet-wide counter conservation), the signed-channel and
# wire-contract tests, the subscriber and publisher crash-point sweeps,
# and the canary-ring fleet rollouts (a recoverable-fault fleet must
# converge; a fault burst in ring 2 must halt the gate and roll every
# patched machine back via undo); the three live-load apply tests run
# 20 times over, the only tests whose threads move between quiescence
# attempts, so the fixed retry bound (5 attempts, 500 µs apart) is
# held against a real scheduler; a ksplice-fleet CLI smoke — 128
# machines with a ring-2 burst, required to halt and roll back cleanly
# (-expect halt), with its -events-out JSONL journal required to hold a
# gate_fail and a rollback event; a cold-then-warm ksplice-create round trip through a
# shared -cache-dir — the tarballs must be byte-identical and the warm
# process must compile nothing; a live observability smoke — a serving
# channel's /metrics scraped and its exposition validated (store,
# channel, and eval families all present); a parallel-determinism
# smoke — the full 64-CVE evaluation run serially and with 8 workers,
# with the deterministic tables (headline and Table 1) required
# byte-identical; a CLI-level signed-channel round trip — keygen,
# signed publish, subscribe with the pinned .pub, and a required
# refusal of an unsigned channel under the same pin; a crash-recovery
# smoke — a CLI subscriber killed mid-apply at a journal crash point
# (the GOSPLICE_CRASH knob), restarted over the same state file, and
# required to converge to the channel head, with a third run confirming
# it is exactly up to date; and a distributed-trace round trip — a CLI
# subscriber syncing over HTTP against a -fleet server and pushing its
# spans upstream, with -check-trace required to find client and server
# spans sharing one trace id with a parent/child link across the two
# processes in /fleet/trace.
# It also runs FuzzFleetReport (two bodies POSTed to /fleet/report) for 10s.
check:
	$(GO) vet ./...
	@out=$$(gofmt -l internal cmd examples *.go); [ -z "$$out" ] || { echo "$$out"; echo "check: gofmt the files above"; exit 1; }
	@! grep -rn --include='*.go' -e 'os\.Rename(' -e 'os\.CreateTemp(' internal cmd examples | grep -v -e '_test\.go:' -e '^internal/atomicfile/' || { echo "check: write files through internal/atomicfile"; exit 1; }
	@! grep -rn --include='*.go' -e '\.Sync()' -e 'Fsync(' -e 'Fdatasync(' internal cmd examples | grep -v -e '_test\.go:' -e '^internal/atomicfile/' -e '^internal/channel/state\.go:' || { echo "check: fsync only in internal/atomicfile and the apply journal's group commit (internal/channel/state.go)"; exit 1; }
	@! grep -rnE --include='*.go' '(^|[^[:alnum:]_])(store\.(New|MustNew)|srctree\.SetStore)\(' internal cmd examples | grep -v -e '_test\.go:' -e '^internal/srctree/' -e '^internal/channel/blobcache\.go:' || { echo "check: make and install artifact stores only in internal/srctree (srctree.UseDiskStore) and internal/channel/blobcache.go"; exit 1; }
	cd bench && $(GO) vet ./... && $(GO) test -short ./...
	$(GO) test -race ./...
	$(GO) test -run 'TestApplyUnderLiveLoad|TestSoakUnderBackgroundLoad|TestDynAMOSStyleNonQuiescentUpdate' -count=20 ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzFleetReport$$' -fuzztime 10s ./internal/channel
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/ksplice-fleet -clients 128 -q -burst-ring 2 -expect halt -events-out $$tmp/events.jsonl && \
	grep -q '"type":"gate_fail"' $$tmp/events.jsonl && \
	grep -q '"type":"rollback"' $$tmp/events.jsonl && \
	echo "check: 128-machine canary rollout halted at the burst ring and rolled back (journal records gate_fail and rollback)" && \
	rm -rf $$tmp
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/ksplice-create -version sim-2.6.16-deb -cve CVE-2006-2451 -cache-dir $$tmp/store -cache-stats -o $$tmp/cold.tar >/dev/null 2>$$tmp/cold.log && \
	$(GO) run ./cmd/ksplice-create -version sim-2.6.16-deb -cve CVE-2006-2451 -cache-dir $$tmp/store -cache-stats -o $$tmp/warm.tar >/dev/null 2>$$tmp/warm.log && \
	cmp $$tmp/cold.tar $$tmp/warm.tar && \
	grep -q ' 0 compiled' $$tmp/warm.log && \
	echo "check: cold/warm -cache-dir round trip OK (warm create compiled nothing)" && \
	rm -rf $$tmp
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/ksplice-channel ./cmd/ksplice-channel && \
	$$tmp/ksplice-channel -publish -dir $$tmp/chan -version sim-2.6.16-deb >/dev/null && \
	{ $$tmp/ksplice-channel -serve -dir $$tmp/chan -addr 127.0.0.1:0 -metrics-addr 127.0.0.1:0 >$$tmp/serve.log 2>&1 & echo $$! >$$tmp/pid; } && \
	for i in $$(seq 1 50); do grep -q '^telemetry: serving ' $$tmp/serve.log && break; sleep 0.1; done; \
	url=$$(sed -n 's#^telemetry: serving ##p' $$tmp/serve.log); \
	if [ -n "$$url" ] && $$tmp/ksplice-channel -scrape "$$url"; then ok=1; else ok=0; cat $$tmp/serve.log; fi; \
	kill $$(cat $$tmp/pid) 2>/dev/null; rm -rf $$tmp; \
	[ $$ok -eq 1 ] && echo "check: live /metrics scrape on a serving channel OK"
	@tmp=$$(mktemp -d) && \
	$(GO) build -o $$tmp/ksplice-eval ./cmd/ksplice-eval && \
	$$tmp/ksplice-eval -j 1 -table 1 > $$tmp/serial-t1.out && \
	$$tmp/ksplice-eval -j 8 -table 1 > $$tmp/parallel-t1.out && \
	cmp $$tmp/serial-t1.out $$tmp/parallel-t1.out && \
	$$tmp/ksplice-eval -j 1 -table headline > $$tmp/serial-head.out && \
	$$tmp/ksplice-eval -j 8 -table headline > $$tmp/parallel-head.out && \
	cmp $$tmp/serial-head.out $$tmp/parallel-head.out && \
	echo "check: parallel eval (-j 8) byte-identical to serial across all 64 CVEs" && \
	rm -rf $$tmp
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/ksplice-channel ./cmd/ksplice-channel && \
	$(GO) run ./cmd/simboot -version sim-2.6.16-deb -state $$tmp/machine.json >/dev/null && \
	$(GO) run ./cmd/simboot -version sim-2.6.16-deb -state $$tmp/machine2.json >/dev/null && \
	$$tmp/ksplice-channel -keygen $$tmp/pub.key >/dev/null && \
	$$tmp/ksplice-channel -publish -dir $$tmp/chan -version sim-2.6.16-deb -cve CVE-2006-2451 -sign-key $$tmp/pub.key >/dev/null && \
	$$tmp/ksplice-channel -subscribe -dir $$tmp/chan -state $$tmp/machine.json -verify-key $$tmp/pub.key.pub >/dev/null && \
	$$tmp/ksplice-channel -publish -dir $$tmp/unsigned -version sim-2.6.16-deb -cve CVE-2006-2451 >/dev/null && \
	! $$tmp/ksplice-channel -subscribe -dir $$tmp/unsigned -state $$tmp/machine2.json -verify-key $$tmp/pub.key.pub >/dev/null 2>&1 && \
	echo "check: signed channel subscribes with the pinned key; unsigned channel refused" && \
	rm -rf $$tmp
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/ksplice-channel ./cmd/ksplice-channel && \
	$(GO) run ./cmd/simboot -version sim-2.6.16-deb -state $$tmp/machine.json >/dev/null && \
	$$tmp/ksplice-channel -publish -dir $$tmp/chan -version sim-2.6.16-deb >/dev/null && \
	! GOSPLICE_CRASH=channel.journal.append.synced:8 $$tmp/ksplice-channel -subscribe -dir $$tmp/chan -state $$tmp/machine.json >$$tmp/crash.log 2>&1 && \
	$$tmp/ksplice-channel -subscribe -dir $$tmp/chan -state $$tmp/machine.json >$$tmp/recover.log 2>&1 && \
	grep -q 'machine now carries 16 hot updates' $$tmp/recover.log && \
	$$tmp/ksplice-channel -subscribe -dir $$tmp/chan -state $$tmp/machine.json | grep -q 'up to date' && \
	echo "check: subscriber killed mid-apply recovered to the channel head on restart" && \
	rm -rf $$tmp
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/ksplice-channel ./cmd/ksplice-channel && \
	$(GO) run ./cmd/simboot -version sim-2.6.16-deb -state $$tmp/machine.json >/dev/null && \
	$$tmp/ksplice-channel -publish -dir $$tmp/chan -version sim-2.6.16-deb -cve CVE-2006-2451 >/dev/null && \
	{ $$tmp/ksplice-channel -serve -fleet -dir $$tmp/chan -addr 127.0.0.1:0 >$$tmp/serve.log 2>&1 & echo $$! >$$tmp/pid; } && \
	for i in $$(seq 1 50); do grep -q '^serving ' $$tmp/serve.log && break; sleep 0.1; done; \
	addr=$$(sed -n 's#^serving .* on ##p' $$tmp/serve.log); \
	if [ -n "$$addr" ] && \
	   $$tmp/ksplice-channel -subscribe -url "http://$$addr" -state $$tmp/machine.json -push-report "http://$$addr/fleet/report" >/dev/null && \
	   $$tmp/ksplice-channel -check-trace "http://$$addr/fleet/trace"; then ok=1; else ok=0; cat $$tmp/serve.log; fi; \
	kill $$(cat $$tmp/pid) 2>/dev/null; rm -rf $$tmp; \
	[ $$ok -eq 1 ] && echo "check: merged cross-process trace round trip OK (subscriber and server spans share one trace id)"

bench:
	$(GO) test -bench=. -benchmem -run '^$$'

# Regenerate the perf trajectory record: the eval pipeline benchmarks
# (cold vs incremental create, the full 64-CVE run with cache hit rates)
# rendered as JSON, with the bench process's telemetry snapshot embedded
# so the record carries the counters behind the custom metrics. Commit
# BENCH_eval.json to track the trend across PRs.
bench-json:
	GOSPLICE_TELEMETRY_OUT=$$(pwd)/BENCH_telemetry.json $(GO) test -run '^$$' -bench 'BenchmarkEvalAll64|BenchmarkPrePostDiff|BenchmarkKernelBuild|BenchmarkChannelSubscribeSourceBuild|BenchmarkChannelDeltaBandwidth|BenchmarkFleetRollout|BenchmarkCrashRecovery' -benchmem > BENCH_eval.txt
	$(GO) run ./cmd/benchjson -in BENCH_eval.txt -telemetry BENCH_telemetry.json -out BENCH_eval.json
	rm -f BENCH_eval.txt BENCH_telemetry.json
