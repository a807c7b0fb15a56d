#!/usr/bin/env bash
# Run the CLI commands listed below from two source trees and compare the
# stdout bytes and exit code of each; exits 1 if any command differs.
#
#   tools/compare_cli_output.sh BASE_DIR HEAD_DIR
#
# Each directory is a checkout of this repository; its `src/` is put first on
# PYTHONPATH, so neither needs to be installed.
set -euo pipefail

base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

status=0
n=0
while read -r -a args; do
  n=$((n + 1))
  for side in base head; do
    code=0
    PYTHONPATH="${!side}/src" python -m unruhpd "${args[@]}" > "$out/$side.$n" || code=$?
    echo "exit=$code" >> "$out/$side.$n"
  done
  if cmp -s "$out/base.$n" "$out/head.$n"; then
    echo "same      unruhpd ${args[*]} ($(wc -c < "$out/head.$n") bytes)"
  else
    echo "DIFFERENT unruhpd ${args[*]}"
    status=1
  fi
done <<'COMMANDS'
verify --grid 1001 --tol 1e-12
verify
equilibria --gamma pi/2 --r 0.3 --set C,D,Q,M
sweep --gamma pi/2 --steps 2000
fig2 --steps 2000
play --gamma pi/3 --r pi/5 --alice M --bob Q
play --gamma pi/2 --r 0.3 --alice 1.0,2.0 --bob 4.0,0.5 --json
COMMANDS
exit $status
