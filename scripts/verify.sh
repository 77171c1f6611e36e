#!/bin/sh
# verify.sh — the repository's full verification gate, in escalating
# cost order: compile, vet, formatting, doc drift (paths and
# experiments the docs name must exist), the pair-loop bounds-check
# budget, the no-pair-loop check on the parallel engine, the whole
# test suite, one run of every example main, the benchmark module
# (perfbench, a module of its own), the race-detector pass over the
# sharded/recovery/scheduling paths (tier-1.5), the crash and chaos
# smokes, the project static-analysis suite (mdlint), then the
# zero-alloc stepping gate, the determinism certificate diff and the
# hotalloc ledger budget. Any failure fails the gate.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l . (no unformatted file, perfbench included)"
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
    printf '%s\n' "$UNFORMATTED" >&2
    echo "verify: the files above are not gofmt-formatted; fix with: gofmt -w <file>" >&2
    exit 1
fi

SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

echo "==> doc drift: the ./cmd and ./examples paths and paperbench -experiment ids the docs name exist"
# A README line left pointing at a deleted binary, example or
# experiment fails here. paperbench builds its -experiment help from
# the same tables run dispatches on, so the help lists what it accepts.
go build -o "$SCRATCH/paperbench" ./cmd/paperbench
EXPERIMENT_IDS="$("$SCRATCH/paperbench" -h 2>&1 |
    sed -n 's/.*artifact to regenerate: \(.*\) (default.*/\1/p' |
    sed 's/, or the extensions /|/' | tr '|' ' ')"
if [ -z "$EXPERIMENT_IDS" ]; then
    echo "verify: could not read the experiment ids from paperbench -h" >&2
    exit 1
fi
DRIFT=""
for DOC in README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md; do
    for DOC_PATH in $(grep -oE '\./(cmd|examples)/[A-Za-z0-9_]+' "$DOC" | sort -u); do
        [ -d "$DOC_PATH" ] || DRIFT="$DRIFT$DOC: $DOC_PATH does not exist
"
    done
    # Lines are joined first so an id wrapped onto the next line is
    # read. An id list may be bracketed (<fig5|fig6>); a lone <id> is a
    # placeholder and is skipped.
    for ID in $(tr '\n' ' ' < "$DOC" |
        grep -oE '(^|[^A-Za-z0-9_-])-experiment[ =]+(<[A-Za-z0-9_]+(\|[A-Za-z0-9_]+)+>|[A-Za-z0-9_|]+)' |
        sed -E 's/^.*-experiment[ =]+<?//; s/>$//' | tr '|' '\n' | sort -u); do
        case " $EXPERIMENT_IDS " in
        *" $ID "*) ;;
        *) DRIFT="$DRIFT$DOC: paperbench -experiment $ID is not accepted (want one of: $EXPERIMENT_IDS)
" ;;
        esac
    done
done
if [ -n "$DRIFT" ]; then
    printf '%s' "$DRIFT" >&2
    echo "verify: the docs above name a path or experiment that does not exist" >&2
    exit 1
fi

echo "==> bounds checks in the pair loops <= 1 (between // bce:begin and // bce:end in internal/md)"
# The compiler reports every bounds check it could not eliminate;
# count those on lines inside the markers. The one check left is the
# j-indexed gather in NeighborList.ForcesSpan, the list kernel the
# serial Forces and every parallel pair chunk share, which no reslice
# can prove. Each pair loop must carry
# markers, so a loop whose markers were dropped fails here by name
# instead of leaving the budget.
BCE_BUDGET=1
BCE_LOOPS="ForcesSpan BuildSpan acceptImaged"
BCE_MARKED="$(awk '
    /^func / {
        fn = $0
        sub(/^func /, "", fn)
        sub(/^\([^)]*\) /, "", fn)
        sub(/[[(].*/, "", fn)
    }
    /\/\/ bce:begin/ { print fn }' internal/md/*.go)"
BCE_MISSING=""
for LOOP in $BCE_LOOPS; do
    printf '%s\n' "$BCE_MARKED" | grep -qx "$LOOP" || BCE_MISSING="$BCE_MISSING $LOOP"
done
if [ -n "$BCE_MISSING" ]; then
    echo "verify: no // bce:begin marker in:$BCE_MISSING (want markers in each of: $BCE_LOOPS)" >&2
    exit 1
fi
BCE_CHECKS="$(go build -gcflags=-d=ssa/check_bce -o /dev/null ./internal/md 2>&1 | awk -F: '
    /Found Is(Slice)?InBounds/ {
        file = $1
        if (!(file in read)) {
            read[file] = 1
            inside = 0
            n = 0
            while ((getline l < file) > 0) {
                n++
                if (l ~ /\/\/ bce:begin/) inside = 1
                else if (l ~ /\/\/ bce:end/) inside = 0
                else if (inside) marked[file ":" n] = 1
            }
            close(file)
        }
        if ((file ":" $2) in marked) count++
    }
    END { print count + 0 }')"
echo "bounds checks between bce markers: $BCE_CHECKS (budget $BCE_BUDGET)"
if [ "$BCE_CHECKS" -gt "$BCE_BUDGET" ]; then
    echo "verify: $BCE_CHECKS bounds checks inside the bce markers, budget is $BCE_BUDGET" >&2
    echo "verify: list them with: go build -gcflags=-d=ssa/check_bce ./internal/md" >&2
    exit 1
fi

echo "==> no pair loop in internal/parallel (the engine shards md's kernels)"
# The engine owns sharding, buffers and the reduction; every pair loop
# lives in internal/md. A non-test parallel file that evaluates a pair
# (LJ.Pair) or a minimum image is a kernel body copied back.
PAIR_COPIES="$(grep -nE '\.Pair\(|MinImage' $(ls internal/parallel/*.go | grep -v '_test\.go$') || true)"
if [ -n "$PAIR_COPIES" ]; then
    printf '%s\n' "$PAIR_COPIES" >&2
    echo "verify: internal/parallel carries a pair loop; shard an internal/md kernel instead" >&2
    exit 1
fi

echo "==> go test ./..."
go test ./...

echo "==> examples: run each main once (README tells users to go run them)"
# The build above only compiles them; a main that errors or panics at
# run time fails here. Output is shown only for a failing example.
EXAMPLE_OUT="$(mktemp)"
for EXAMPLE in examples/*/; do
    echo "go run ./$EXAMPLE"
    if ! go run "./$EXAMPLE" > "$EXAMPLE_OUT" 2>&1; then
        cat "$EXAMPLE_OUT" >&2
        rm -f "$EXAMPLE_OUT"
        echo "verify: example $EXAMPLE exited nonzero" >&2
        exit 1
    fi
done
rm -f "$EXAMPLE_OUT"

echo "==> perfbench module: go vet + go test (the root build never compiles it)"
(cd perfbench && go vet ./... && go test ./...)

echo "==> go test -race (tier-1.5: md, parallel, faults, fsys, guard, fleet, mdrun, serve, chaos, mdsim)"
go test -race -short ./internal/md/... ./internal/parallel/... \
    ./internal/faults/... ./internal/fsys/... ./internal/guard/... \
    ./internal/fleet/... ./internal/mdrun/... ./internal/serve/... \
    ./internal/chaos/... ./cmd/mdsim/...

echo "==> mdserve crash-recovery smoke (submit, kill -9, restart, resume, compare)"
go test -count=1 -run 'TestMDServeKillRestart' ./cmd/mdserve/

echo "==> mdchaos fixed-seed smoke campaign (12 schedules, all invariants)"
go test -count=1 -run 'TestChaosSmoke' ./internal/chaos/

echo "==> build mdlint once (gates below reuse the binary)"
MDLINT="$SCRATCH/mdlint"
go build -o "$MDLINT" ./cmd/mdlint

echo "==> mdlint ./..."
"$MDLINT" ./...

echo "==> go test -bench=StepAllocs -benchmem (zero-alloc steady-state stepping gate)"
STEPALLOCS_OUT="$(go test -run='^$' -bench=StepAllocs -benchmem -benchtime=50x .)"
printf '%s\n' "$STEPALLOCS_OUT"
if printf '%s\n' "$STEPALLOCS_OUT" | grep -E ' [1-9][0-9]* allocs/op' >/dev/null; then
    echo "verify: BenchmarkStepAllocs reported a nonzero allocs/op — steady-state stepping must not allocate" >&2
    exit 1
fi
# A renamed, skipped or unmatched arm prints no allocs/op line at all,
# so also require every arm (direct_serial, pairlist_serial,
# pairlist_shifted_serial) to have reported 0 allocs/op.
STEPALLOCS_ARMS=3
STEPALLOCS_ZERO="$(printf '%s\n' "$STEPALLOCS_OUT" | grep -cE '^BenchmarkStepAllocs/.* 0 allocs/op$' || true)"
if [ "$STEPALLOCS_ZERO" -ne "$STEPALLOCS_ARMS" ]; then
    echo "verify: $STEPALLOCS_ZERO BenchmarkStepAllocs arms reported 0 allocs/op, want $STEPALLOCS_ARMS" >&2
    exit 1
fi

echo "==> mdlint -certify ./... (determinism certificate vs committed golden)"
"$MDLINT" -certify ./... > DETERMINISM_CERT.json.new
if ! diff -u DETERMINISM_CERT.json DETERMINISM_CERT.json.new; then
    rm -f DETERMINISM_CERT.json.new
    echo "verify: determinism certificate drifted from DETERMINISM_CERT.json" >&2
    echo "verify: regenerate with: go run ./cmd/mdlint -certify ./... > DETERMINISM_CERT.json" >&2
    exit 1
fi
rm -f DETERMINISM_CERT.json.new

echo "==> hotalloc ledger <= 8 sites (grow-once arena contract)"
SITES="$(sed -n 's/.*"count": *\([0-9][0-9]*\).*/\1/p' DETERMINISM_CERT.json | head -n 1)"
echo "hotalloc ledger: ${SITES:-?} sites"
if [ -z "$SITES" ] || [ "$SITES" -gt 8 ]; then
    echo "verify: hotalloc ledger has ${SITES:-unknown} sites, budget is 8" >&2
    exit 1
fi

echo "verify: all gates passed"
