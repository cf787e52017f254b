#!/bin/sh
# Snapshot the output of every deterministic CLI command and example.
#
# Usage: scripts/cli_snapshot.sh DIR
#
# Builds the checkout this script lives in, then writes one file per command
# into DIR: the command's stdout and stderr, followed by its exit status.
# Run it on two checkouts and compare them with `diff -r DIR1 DIR2`; a
# behaviour-preserving change leaves the diff empty. `simulate` is left out
# because it prints wall-clock seconds.
set -eu

[ $# -eq 1 ] || { echo "usage: $0 DIR" >&2; exit 2; }
out=$1
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$out"
out=$(cd "$out" && pwd)

cd "$root"
dune build bin/repdir.exe examples/quickstart.exe examples/paper_walkthrough.exe \
  examples/name_service.exe examples/locality.exe examples/delete_ambiguity.exe

# snap NAME EXE ARGS...: run EXE with ARGS, capture into $out/NAME.
snap() {
  name=$1
  exe=$2
  shift 2
  status=0
  "$exe" "$@" >"$out/$name" 2>&1 || status=$?
  echo "exit $status" >>"$out/$name"
}

repdir=_build/default/bin/repdir.exe
# The campaign snapshots keep the names of the commands `repdir campaign`
# replaced (nemesis, audit, reconfig, shard, faults, sync --staleness), so
# snapshots taken before and after that change pair up under `diff -r`.
snap nemesis-42 "$repdir" campaign standard --seed 42
for seed in 42 1983 7; do
  snap "audit-$seed" "$repdir" campaign --all --seed "$seed"
  snap "audit-$seed-cache" "$repdir" campaign --all --seed "$seed" --cache
done
snap audit-1983-clients3-cache "$repdir" campaign --all --seed 1983 --clients 3 --cache
snap audit-42-shards4 "$repdir" campaign "sharded split" --seed 42 --groups 4 --duration 1000 \
  --keys 30 --clients 1
snap reconfig-1983 "$repdir" campaign reconfig --seed 1983
snap shard-1983 "$repdir" campaign "sharded split" --seed 1983
snap sync "$repdir" sync
snap sync-staleness "$repdir" campaign anti-entropy
snap faults-33 "$repdir" campaign "crash timeline" --seed 33
# A flag the plan cannot honour is refused with exit status 2.
snap campaign-refused-cache "$repdir" campaign "sharded split" --cache
snap latency "$repdir" latency
# The paper's tables, at their default seeds (figure15 at 10000 ops, not
# 100000, to keep the whole script to seconds).
snap figure14 "$repdir" figure14
snap figure15 "$repdir" figure15 --ops 10000
for cmd in quorum-stability availability messages concurrency skew locality batching space; do
  snap "$cmd" "$repdir" "$cmd"
done
for ex in quickstart paper_walkthrough name_service locality delete_ambiguity; do
  snap "example-$ex" "_build/default/examples/$ex.exe"
done
