#!/bin/sh
# Default verify flow: the fuzz-list, gofmt, program-set and
# reachability gates, then vet, build, race-enabled tests in shuffled
# order (a test that leans on state another test left behind fails
# here), then the benchmark module (bench/ is its own Go module, so the
# root ./... never compiles it; it uses the obs, tsdb and supervisor
# APIs).
#
# The programs are what ships: the commands under cmd/ and bench/. The
# program-set gate fails naming any main package of the root module
# outside cmd/; runnable documentation is an Example in a _test.go file,
# which tier-1 runs. The reachability gate (scripts/linkcheck, a module
# of its own, vetted and tested here) builds every program, that is each
# main package of the root module that imports internal/ (cmd/*) and
# bench/, with inlining off, reads their symbols with go tool nm, and
# fails naming each function in a non-test file under internal/ that no
# program links. It takes about 4 s with a warm build cache on a 2-CPU
# host. To fix a failure, delete the function, or move it into a
# _test.go file of its package (into internal/testkit when other
# packages' tests use it): a package only tests import is test code.
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

echo "== the root module's main packages are under cmd/"
# linkcheck counts every main package as a program, so a demo added
# anywhere else would keep alive code that only it reaches.
mod=$(go list -m)
stray=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./... | grep -v -e '^$' -e "^$mod/cmd/" || true)
if [ -n "$stray" ]; then
	echo "main package outside cmd/ (make it a command under cmd/, or an Example in a _test.go file):"
	printf '%s\n' "$stray"
	exit 1
fi

echo "== every function under internal/ is linked by a program"
# scripts/linkcheck is a module of its own, so the root ./... never runs
# its tests, whose builds would load the host under the timing gates.
(cd scripts/linkcheck && go vet ./... && go test ./... && go run . ../.. ../../bench)

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

echo "== bench: go vet ./... && go test ./..."
(cd bench && go vet ./... && go test ./...)

echo "== ok"
