#!/usr/bin/env bash
# Flake rate of the suites that race threads, open servers or spawn
# processes (the oracle matrix's wire route serves in-process): each suite
# runs N times (default 20), one fresh pytest process per run, and a
# Markdown table of passed/N per suite goes to stdout.  Exits 1 if any run
# failed.
#
#   PYTHONPATH=src tools/flake_rate.sh [N] [suite ...]
set -u

runs=${1:-20}
shift $(( $# > 0 ? 1 : 0 ))
suites=("$@")
if [ ${#suites[@]} -eq 0 ]; then
  suites=(
    tests/test_session_concurrency.py
    tests/test_shard_concurrency.py
    tests/test_process_shards.py
    tests/test_cluster_lifecycle.py
    tests/test_oracle_matrix.py
  )
fi

status=0
echo "| suite | passed |"
echo "| --- | --- |"
for suite in "${suites[@]}"; do
  passed=0
  for _ in $(seq "$runs"); do
    if python -m pytest -q -p no:cacheprovider "$suite" > /dev/null 2>&1; then
      passed=$((passed + 1))
    fi
  done
  [ "$passed" -eq "$runs" ] || status=1
  echo "| \`$suite\` | $passed/$runs |"
done
exit $status
