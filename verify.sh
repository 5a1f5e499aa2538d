#!/bin/sh
# verify.sh — the full pre-merge gauntlet, in cost order: tier-1 build
# and tests first, then vet, then dvlint (the project's own static
# analysis; see DESIGN.md, "Static analysis"), then the race detector
# over the concurrency hot spots listed in ROADMAP.md, then the steady
# benchmark module's vet and tests, then a bench regression gate against
# the committed storage baseline. Fails fast.
#
# `verify.sh -quick` runs only the tier-1 gates (build, test, vet) —
# the inner-loop check while iterating; the full gauntlet stays the
# pre-merge bar.
set -eux

go build ./...
go test ./...
go vet ./...

if [ "${1:-}" = "-quick" ]; then
	exit 0
fi

benchdir=$(mktemp -d)
trap 'rm -rf "$benchdir"' EXIT

# Lint gate: capture the JSON report so a failure prints the per-rule
# findings/time summary instead of leaving only an exit status in the
# CI log.
go run ./cmd/dvlint -json ./... >"$benchdir/lint.json" || {
	go run ./cmd/dvlint -summarize "$benchdir/lint.json"
	exit 1
}

go test -race \
	./internal/lru/... \
	./internal/compress/... \
	./internal/record/... \
	./internal/core/... \
	./internal/vexec/... \
	./internal/remote/... \
	./internal/playback/... \
	./internal/e2e/... \
	./internal/tier/... \
	./internal/obs/... \
	./internal/lint/...

# The steady benchmark (_perf/) is its own module, outside the root
# `./...`: vet it and run its own tests — the correctness checks its
# workloads make and the consistency of its traced and untraced passes.
go -C _perf vet ./...
go -C _perf test .

# Bench gate: re-measure a cheap storage subset and diff it against the
# committed baseline (BENCH_storage.json, written by
# `dvbench -storage -codec raw,flate,lzs,auto -json`). The compare
# skips metrics absent from either side, so the subset diffs cleanly
# against the full baseline. The 1.0 threshold (100%) only catches
# gross regressions — ratios going badly wrong, throughput collapsing —
# not scheduler noise on shared runners. dvbench writes BENCH_*.json to
# its working directory, so run it from a temp dir to keep the
# committed baseline untouched.
go build -o "$benchdir/dvbench" ./cmd/dvbench
(cd "$benchdir" && ./dvbench -storage -scenarios cat,gzip \
	-codec flate,lzs,auto -json >/dev/null)
go run ./cmd/dvbench -compare -threshold 1.0 \
	BENCH_storage.json "$benchdir/BENCH_storage.json"

# Fleet gate: one cheap multi-tenant shape (2 sessions x 2 viewers)
# diffed against the committed full-ladder baseline (BENCH_fleet.json,
# written by `dvbench -fleet -json`). Same subset-vs-full and
# gross-regression-only rules as the storage gate.
(cd "$benchdir" && ./dvbench -fleet -shapes 2x2 -json >/dev/null)
go run ./cmd/dvbench -compare -threshold 1.0 \
	BENCH_fleet.json "$benchdir/BENCH_fleet.json"

# Compact gate: one scenario's tiered-lifecycle run (lazy vs eager open
# block counts are deterministic; times gated for gross regressions
# only) diffed against the committed full baseline (BENCH_compact.json,
# written by `dvbench -compact -json`).
(cd "$benchdir" && ./dvbench -compact -scenarios editor -json >/dev/null)
go run ./cmd/dvbench -compare -threshold 1.0 \
	BENCH_compact.json "$benchdir/BENCH_compact.json"

# Browse gate: one scenario's visual-history seek run (strip shape and
# block-cache counts are deterministic; cold/warm times gated for gross
# regressions only; the warm>=2x cold bar itself is enforced by
# internal/bench TestRunBrowse) diffed against the committed full
# baseline (BENCH_browse.json, written by `dvbench -browse -json`).
(cd "$benchdir" && ./dvbench -browse -scenarios screentrack -json >/dev/null)
go run ./cmd/dvbench -compare -threshold 1.0 \
	BENCH_browse.json "$benchdir/BENCH_browse.json"
