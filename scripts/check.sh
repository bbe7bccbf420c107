#!/bin/sh
# Default verify flow: vet, build, race-enabled tests in shuffled order
# (a test that leans on state another test left behind fails here), then
# the benchmark module (bench/ is its own Go module, so the root ./...
# never compiles it; it uses the obs, tsdb and supervisor APIs).
# Run from the repo root: ./scripts/check.sh  (or: make check)
set -eu

cd "$(dirname "$0")/.."

echo "== every fuzz target is in make fuzz"
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
[ "$missing" -eq 0 ]

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

echo "== bench: go vet ./... && go test ./..."
(cd bench && go vet ./... && go test ./...)

echo "== ok"
