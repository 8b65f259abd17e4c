#!/usr/bin/env bash
# Paired benchmark runs of a parent checkout and the current directory,
# for the benchmark ledger:
#
#   bash scripts/bench_ledger_pairs.sh PARENT N
#
# Run from the repository root; `make bench-json BENCH_PARENT=PARENT`
# runs it and then writes BENCH_gpusim.json from its two logs. Each
# side's numbers are measured in alternation with the other's, not
# against a log recorded earlier, so VM drift between the two does not
# read as a speedup or a regression. It builds the root package's test
# binary in both checkouts, then runs every benchmark the current
# binary lists N times on each side for 1 s each (go test's default
# benchtime, which the committed ledger's rows use), alternating which
# side runs first. Each side's row is its median run by ns/op (a
# benchmark the PARENT binary lacks has no baseline). The PARENT
# medians go to bench_baseline.txt, the log the ledger names as its
# baseline, and the current ones to .bench_build/ledger_change.txt.
#
# One pass over every benchmark takes about two minutes on a 2-vCPU
# VM, and N = 3 makes six.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT N" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
n=$2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
(cd "$parent" && go test -c -o "$tmp/parent.test" .)
go test -c -o "$tmp/change.test" .

# run SIDE BENCH: one run of benchmark BENCH on SIDE, its result lines
# appended to $tmp/SIDE.raw.
run() {
  "$tmp/$1.test" -test.run '^$' -test.bench "^$2\$" -test.benchtime 1s -test.benchmem |
    grep '^Benchmark' >>"$tmp/$1.raw" || true
}

for bench in $("$tmp/change.test" -test.list '^Benchmark'); do
  for ((i = 0; i < n; i++)); do
    if ((i % 2 == 0)); then
      run parent "$bench"
      run change "$bench"
    else
      run change "$bench"
      run parent "$bench"
    fi
  done
done

# median: each benchmark's run with the median ns/op (the lower median
# for an even count), whole line, in first-seen order.
median() {
  awk '{ if (!($1 in cnt)) order[++k] = $1; c = ++cnt[$1]; ns[$1, c] = $3 + 0; line[$1, c] = $0 }
    END {
      for (i = 1; i <= k; i++) {
        name = order[i]; m = cnt[name]
        for (a = 1; a <= m; a++) idx[a] = a
        for (a = 1; a <= m; a++) for (b = a + 1; b <= m; b++)
          if (ns[name, idx[b]] < ns[name, idx[a]]) { t = idx[a]; idx[a] = idx[b]; idx[b] = t }
        print line[name, idx[int((m + 1) / 2)]]
      }
    }' "$1"
}

mkdir -p .bench_build
median "$tmp/parent.raw" >bench_baseline.txt
median "$tmp/change.raw" >.bench_build/ledger_change.txt
