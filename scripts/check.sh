#!/bin/sh
# Default verify flow: the fuzz-list and gofmt gates, then vet, build,
# race-enabled tests in shuffled order
# (a test that leans on state another test left behind fails here), then
# the benchmark module (bench/ is its own Go module, so the root ./...
# never compiles it; it uses the obs, tsdb and supervisor APIs).
# Run from the repo root: ./scripts/check.sh  (or: make check)
set -eu

cd "$(dirname "$0")/.."

echo "== make fuzz lists exactly the fuzz targets"
# Each "func FuzzX" in a _test.go file needs a line in the Makefile's
# fuzz target that runs its package with -fuzz X (or 'X$$').
fuzzlist=$(sed -n '/^fuzz:/,/^$/p' Makefile)
missing=0
for f in $(grep -rl --include='*_test.go' --exclude-dir=.git --exclude-dir=.bench_build '^func Fuzz' .); do
	dir=$(dirname "$f")
	for name in $(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$f"); do
		if ! printf '%s\n' "$fuzzlist" | grep -F -- " $dir/ " | grep -qE -- "-fuzz '?$name(\\\$\\\$)?'? "; then
			echo "$dir: $name is missing from the fuzz target in the Makefile"
			missing=1
		fi
	done
done
# And each -fuzz line must name a Fuzz function of its package: go test
# -fuzz with a name that matches nothing prints "no fuzz tests to fuzz"
# and exits 0, so a stale line would fuzz nothing and stay green.
targets=$(printf '%s\n' "$fuzzlist" | awk '/ -fuzz / {
	dir = ""; name = ""
	for (i = 1; i < NF; i++) {
		if ($i ~ /^\.\//) dir = $i
		if ($i == "-fuzz") name = $(i + 1)
	}
	gsub(/\047/, "", name); sub(/\$\$$/, "", name); sub(/\/$/, "", dir)
	print dir, name
}')
while read -r dir name; do
	[ -n "$dir$name" ] || continue
	if ! grep -qs "^func $name(" "$dir"/*_test.go; then
		echo "$dir: make fuzz runs -fuzz $name, which no _test.go file there defines"
		missing=1
	fi
done <<LIST
$targets
LIST
[ "$missing" -eq 0 ]

echo "== gofmt -l (root module and bench/)"
unformatted=$(find . -name '*.go' -not -path './.git/*' -not -path './.bench_build/*' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
	echo "not gofmt-clean (run gofmt -w on them):"
	printf '%s\n' "$unformatted"
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

echo "== bench: go vet ./... && go test ./..."
(cd bench && go vet ./... && go test ./...)

echo "== ok"
