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
equilibria --gamma 0 --r pi/4 --set C,D
equilibria --gamma pi/3 --r 0.1 --set Q,M,C,D --payoffs 2.5,-1,7.25,0.5
equilibria --gamma pi/4 --r 0 --set M,C
equilibria --gamma pi/2 --r 0.3 --set M
equilibria --gamma 0 --r pi/4 --set C,D,Q
sweep --gamma pi/2 --steps 2000
fig2 --steps 2000
sweep --gamma pi/3 --steps 257 --profiles QM MQ QD --payoffs 2.5,-1,7.25,0.5
fig2 --steps 4099
play --gamma pi/3 --r pi/5 --alice M --bob Q
play --gamma pi/2 --r 0.3 --alice 1.0,2.0 --bob 4.0,0.5 --json
play --gamma 1.5707965 --r 0.7853985 --alice 6.2831855,3.1415928 --bob Q
play --gamma 0 --r=-5e-7 --alice Q --bob M --json
verify --suite eq13 --grid 3
verify --suite commutators
verify --suite table2 --tol 1e-17
play --gamma 0 --r 0 --alice 99,0 --bob C
sweep --gamma 0 --steps 33 --profiles QQ QC MQ DQ --payoffs -0,-1,-2,-3
play --gamma 0 --r 0 --alice Q --bob Q --payoffs -0,-1,-2,-3 --json
equilibria --gamma pi/4 --r pi/8 --set Q,M,C,D --payoffs -0,-1,-2,-3
COMMANDS
exit $status
