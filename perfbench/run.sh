#!/usr/bin/env bash
# Builds the repository benchmark from source in the current checkout and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-checked --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (need go.mod and perfbench/go.mod)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp HOME=$out/home
export XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache GOPATH=$out/home/go
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOTELEMETRY=off CGO_ENABLED=0 GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

commit=unknown
if [ -e "$root/.git" ] && command -v git >/dev/null; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_COMMIT=$commit PERFBENCH_OUT=$out
exec "$out/perfbench" "$@"
