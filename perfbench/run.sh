#!/usr/bin/env bash
# Builds the fenrir daemon and the benchmark driver from the checkout this
# script sits in, then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload ingest-fleet --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --describe
#
# Every build artefact (Go build cache, binaries, per-run scratch files)
# stays under <checkout>/.bench_build. Build output goes to stderr so the
# last line of stdout is the driver's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "${root}/go.mod" || ! -d "${root}/cmd/fenrir" ]]; then
	echo "perfbench: no fenrir module at ${root}" >&2
	exit 1
fi
out="${root}/.bench_build"
mkdir -p "${out}/bin" "${out}/gocache" "${out}/gopath" "${out}/tmp" "${out}/config/go/telemetry"
# The go command otherwise starts a detached telemetry child process that
# outlives this script.
echo off >"${out}/config/go/telemetry/mode"

export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export GOTMPDIR="${out}/tmp"
export XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

# go install, unlike go build -o, leaves an up-to-date binary untouched,
# so a run does not start with 20 MB of freshly written pages for the
# kernel to write back while it measures.
export GOBIN="${out}/bin"
(cd "${root}" && go install ./cmd/fenrir) >&2
(cd "${root}/perfbench" && go install .) >&2

exec "${out}/bin/perfbench" -root "${root}" "$@"
