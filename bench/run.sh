#!/usr/bin/env bash
# The repository benchmark: builds the release binaries, runs the
# workloads, checks every output, prints every metric by name.
#
#   bench/run.sh                                  all five workloads, 10 rounds
#   bench/run.sh --workload interpose --rounds 3  one workload
#   bench/run.sh --traced                         per-layer metrics too
#   bench/run.sh --check                          1 round + BENCHMARK.json cross-check (<20 s)
#   bench/run.sh --repeat 5                       between-set spread per metric
#   bench/run.sh --workload W --seed N --seconds T --trace 0|1
#                                                 the acceptance driver's form:
#                                                 one JSON object on the last line
#
# Exit codes: 0 all checks passed; 1 a digest, count, golden or reply
# check failed; 2 usage or build failure of an end-to-end binary;
# 4 checks passed but pfi-bench-layers did not build, so its per-layer
# rows are missing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One target directory for both workspaces: the product binaries build
# from the root workspace (its own Cargo.lock, exactly as users build
# them), the benchmark binaries from bench/.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;; esac
bin="$CARGO_TARGET_DIR/release"

build() { cargo build --release --offline --quiet "$@" >&2; }

build --locked -p pfi-testgen --bin pfi-campaign || exit 2
build --locked -p pfi-serve --bin pfi-serve || exit 2
build --locked -p pfi-experiments --bin repro || exit 2
# Separate invocations: a compile break in the binary that imports
# testgen and fleet must not take the end-to-end metrics with it.
build --locked --manifest-path bench/Cargo.toml --bin pfi-bench || exit 2
build --locked --manifest-path bench/Cargo.toml --bin pfi-bench-interpose || exit 2
layers=()
if ! build --locked --manifest-path bench/Cargo.toml --bin pfi-bench-layers; then
    echo "bench/run.sh: pfi-bench-layers did not build; its per-layer rows will be missing" >&2
    layers=(--layers-missing)
fi

exec "$bin/pfi-bench" --bin "$bin" --root "$root" --out bench/out ${layers[@]+"${layers[@]}"} "$@"
