#!/usr/bin/env bash
# Run the CLI commands of tools/cli_commands.txt (one per line, arguments
# split on whitespace) from two source trees and compare the stdout bytes and
# exit code of each; exits 1 if any command differs.
#
#   tools/compare_cli_output.sh BASE_DIR HEAD_DIR
#
# Each directory is a checkout of this repository; its `src/` is put first on
# PYTHONPATH, so neither needs to be installed.
set -euo pipefail

base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
commands="$(cd "$(dirname "$0")" && pwd)/cli_commands.txt"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

status=0
n=0
while read -r -a args; do
  n=$((n + 1))
  for side in base head; do
    code=0
    PYTHONPATH="${!side}/src" python -m unruhpd "${args[@]}" < /dev/null > "$out/$side.$n" || code=$?
    echo "exit=$code" >> "$out/$side.$n"
  done
  if cmp -s "$out/base.$n" "$out/head.$n"; then
    echo "same      unruhpd ${args[*]} ($(wc -c < "$out/head.$n") bytes)"
  else
    echo "DIFFERENT unruhpd ${args[*]}"
    status=1
  fi
done < "$commands"
exit $status
