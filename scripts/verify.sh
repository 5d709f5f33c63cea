#!/bin/sh
# verify.sh — the repo's tier-1 gate plus a short race pass over the
# concurrency-heavy packages. Run from the repository root:
#
#     ./scripts/verify.sh        # or: make verify
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test ./..."
go test ./...

# The packages where a data race would silently corrupt the paper's
# measurements: the metrics registry, trace ring and span tracing,
# the simulated kernel's lock/fault accounting, linear memory and the
# arena pool, the fault injector, the hazard-pointer domain behind
# arena recycling, the module cache's singleflight compile path, the
# sweep scheduler, the compiled engines (the elision pass's unchecked
# closures read the raw backing pointer; the race pass must cover
# them), the register-IR lowering (its process-wide counters are hit
# from concurrent compiles), the tiered engine (background compile
# workers and the GC controller emit spans from their own
# goroutines), the telemetry server (which streams from the same
# ring the workers push into), and the WASI layer (one Env serves
# hostcalls from every worker of a multithreaded guest: the shared
# PRNG, the fd table and the in-memory filesystem are all hit
# concurrently).
echo "== go test -race (obs, vmm, mem, faultinject, hazard, modcache, harness, compiled, rir, tiered, telemetry, core, wasi, prof)"
go test -race -count=1 ./internal/obs/ ./internal/vmm/ ./internal/mem/ ./internal/faultinject/ ./internal/hazard/ ./internal/modcache/ ./internal/harness/ ./internal/compiled/ ./internal/rir/ ./internal/tiered/ ./internal/telemetry/ ./internal/core/ ./internal/wasi/ ./internal/prof/

# Quick elide differential: the bounds-check elision pass must be
# observationally equivalent to per-access checks — same digests,
# same trap causes, same trap offsets — under all five strategies,
# with the race detector watching the unchecked fast paths. Clamp
# elides like trap: the same operations run under both, and a loop
# whose tail crosses the end of memory still redirects.
echo "== elide-diff (elide=on vs elide=off differential, -race)"
go test -race -count=1 -run 'TestDifferentialElide|TestElideClampMatchesTrap|TestDifferentialElideClampTail' -short ./internal/compiled/

# Quick register-IR differential: the stack→register lowering and its
# superinstruction fusion must be observationally equivalent to the
# stack-machine emit — same digests, same trap kinds and offsets —
# under all five strategies.
echo "== rir-diff (rir=on vs rir=off differential, -race)"
go test -race -count=1 -run 'TestDifferentialRIR' -short ./internal/compiled/

# Quick fork differential: a copy-on-write fork of a warmed template
# must be observationally identical to a fresh instantiation — same
# digests, same trap kinds and offsets — under all five strategies.
echo "== fork-diff (fork vs fresh instantiation differential, -race)"
go test -race -count=1 -run 'TestDifferentialFork' -short ./internal/compiled/

# Quick hostcall differential: the WASI host boundary must behave
# identically under all five strategies and both engines — same
# errnos and partial counts, same trap kinds for out-of-bounds iovec
# arrays, same final memory and file bytes, including when the guest
# grows memory mid-hostcall while views are open.
echo "== wasi-diff (host-boundary differential across strategies and engines, -race)"
go test -race -count=1 -run 'TestDifferentialHostcall' ./internal/wasi/

# Quick shared-memory differential: N worker threads invoking into
# one shared linear memory while a grower races them must produce the
# native twin's digest bit-for-bit under all five strategies — grow
# timing, fault ordering and lock contention must never leak into
# results. The race detector watches the whole topology: atomic
# accessors, the commit-then-publish grow protocol, and concurrent
# fault resolution on one mapping.
echo "== threads-diff (shared-memory grow-under-traffic differential, -race)"
go test -race -count=1 -run 'TestDifferentialShared' ./internal/harness/

# Profiler smoke: a short sampled gemm run must yield a non-empty
# profile whose pprof export parses, through the harness (the test)
# and through the CLI's -profile/-perf flags (the make target).
echo "== prof-smoke (sampled gemm run: non-empty folded profile + pprof parse)"
make prof-smoke

echo "verify: OK"
