#!/usr/bin/env bash
# Runs one pinbench workload with the flags BENCHMARK.json's command takes:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# from the repository root. It builds pinbench from source into
# .bench_build (the Go build cache, temporary files and tool settings live
# there too, so a run reads and writes nothing outside the checkout) and
# hands over: --seconds sets -scale (10 seconds of measured work per
# workload is scale 1), --trace 1 adds the traced pass. The last line of
# output is pinbench's one-line JSON result.
set -euo pipefail

workload="" seed="" seconds="" trace=""
while [ $# -gt 0 ]; do
	if [ $# -lt 2 ]; then
		echo "run.sh: $1 needs a value" >&2
		exit 2
	fi
	case "$1" in
	--workload) workload=$2 ;;
	--seed) seed=$2 ;;
	--seconds) seconds=$2 ;;
	--trace) trace=$2 ;;
	*)
		echo "run.sh: unknown flag $1" >&2
		exit 2
		;;
	esac
	shift 2
done
case "$seconds" in
'' | *[!0-9]* | 0)
	echo "run.sh: --seconds wants a positive whole number, got '$seconds'" >&2
	exit 2
	;;
esac
case "$trace" in
0) traced=false ;;
1) traced=true ;;
*)
	echo "run.sh: --trace wants 0 or 1, got '$trace'" >&2
	exit 2
	;;
esac
if [ -z "$workload" ] || [ -z "$seed" ]; then
	echo "run.sh: --workload and --seed are required" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/pinbench" ./cmd/pinbench)

scale="$((seconds / 10)).$((seconds % 10))"
exec "$build/pinbench" -workload "$workload" -seed "$seed" -scale "$scale" \
	-trace="$traced" -out "$root/bench/out"
