#!/bin/sh
# Coverage gate: run the full test suite with a coverage profile, fail
# if the repo-wide total drops below the floor, and print the
# per-package delta against the committed baseline so a regression is
# attributable to a package, not just a number.
#
#   ./scripts/coverage.sh            # check (FLOOR default below)
#   UPDATE=1 ./scripts/coverage.sh   # refresh scripts/coverage_baseline.txt
#   FLOOR=75 ./scripts/coverage.sh   # override the floor
#
# The floor is the seed repository's total; raising it as coverage grows
# is encouraged, lowering it needs a reason in the commit message.
set -eu

cd "$(dirname "$0")/.."

floor="${FLOOR:-78.0}"
profile="${PROFILE:-coverage.out}"
baseline="scripts/coverage_baseline.txt"

# The run's log goes to a private temporary file, removed on exit, so
# concurrent runs do not overwrite each other's and none is left behind.
log=$(mktemp "${TMPDIR:-/tmp}/coverage_run.XXXXXX")
trap 'rm -f "$log"' EXIT
trap 'exit 1' HUP INT TERM

echo "== go test -coverprofile $profile ./..."
go test -coverprofile "$profile" ./... > "$log" 2>&1 || {
    cat "$log"
    exit 1
}

# Per-package percentages from the run output: "ok  pkg  time  coverage: NN.N% ..."
current=$(awk '/^ok / && /coverage:/ {
    for (i = 1; i <= NF; i++)
        if ($i == "coverage:" && $(i+1) ~ /%$/) { gsub("%", "", $(i+1)); print $2, $(i+1) }
}' "$log" | sort)

if [ "${UPDATE:-0}" = "1" ]; then
    printf '%s\n' "$current" > "$baseline"
    echo "== wrote $baseline"
fi

if [ -f "$baseline" ]; then
    echo "== per-package coverage delta vs $baseline"
    printf '%s\n' "$current" | while read -r pkg pct; do
        base=$(awk -v p="$pkg" '$1 == p { print $2 }' "$baseline")
        if [ -n "$base" ]; then
            delta=$(awk -v a="$pct" -v b="$base" 'BEGIN { printf "%+.1f", a - b }')
            echo "  $pkg: ${pct}% (baseline ${base}%, ${delta})"
        else
            echo "  $pkg: ${pct}% (new package)"
        fi
    done
fi

total=$(go tool cover -func="$profile" | awk '/^total:/ { gsub("%", ""); print $NF }')
echo "== total coverage: ${total}% (floor ${floor}%)"
awk -v t="$total" -v f="$floor" 'BEGIN { exit (t + 0 < f + 0) ? 1 : 0 }' || {
    echo "== FAIL: total coverage ${total}% is below the ${floor}% floor"
    exit 1
}
echo "== ok"
