#!/bin/sh
# Default verify flow: vet, build, race-enabled tests in shuffled order
# (a test that leans on state another test left behind fails here), then
# the benchmark module (bench/ is its own Go module, so the root ./...
# never compiles it; it uses the obs, tsdb and supervisor APIs).
# Run from the repo root: ./scripts/check.sh  (or: make check)
set -eu

cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

echo "== bench: go vet ./... && go test ./..."
(cd bench && go vet ./... && go test ./...)

echo "== ok"
