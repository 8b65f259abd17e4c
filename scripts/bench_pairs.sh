#!/usr/bin/env bash
# Paired benchmark comparison of two checkouts:
#
#   bash scripts/bench_pairs.sh PARENT CHANGE WORKLOAD N SEED0
#
# Runs `bench/run.sh -workload WORKLOAD -seed S -trace 0` from the
# PARENT and CHANGE checkout directories N times each, at seeds SEED0,
# SEED0+1, ..., alternating which side runs first (pair i runs PARENT
# first when i is even). Each run lasts the benchmark's run length,
# run_seconds in this repo's BENCHMARK.json. Prints every pair, then
# for each end-to-end metric each side's median and quartiles, the
# median paired ratio (change/parent), the pairs the change won (lower
# is better; ties count for neither) and the verdict: a gain holds
# when the change wins at least nine tenths of the pairs and its
# median is below the parent's by more than the parent's interquartile
# range; a regression mirrors it, with the parent winning at least
# nine tenths of the pairs and the change's median above the parent's
# by more than that range.
#
# Not a CI step: a measurement tool. Both checkouts build their own
# benchmark under their own .bench_build/. Raw reports stay in a
# fresh temporary directory, printed at the end.
set -euo pipefail

if [ $# -ne 5 ]; then
  echo "usage: $0 PARENT CHANGE WORKLOAD N SEED0" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
n=$4
seed0=$5
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*/\1/p' \
  "$(dirname "$0")/../BENCHMARK.json")
if [ -z "$seconds" ]; then
  echo "$0: no run_seconds in BENCHMARK.json" >&2
  exit 2
fi
out=$(mktemp -d)
metrics=(wall_s cpu_s peak_rss_mb setup_s)

# run SIDE DIR SEED: one benchmark run, its metric lines kept in
# $out/SIDE.SEED.txt.
run() {
  (cd "$2" && bash bench/run.sh -workload "$workload" -seed "$3" \
    -seconds "$seconds" -trace 0 -out "$out/$1.$3.json") >"$out/$1.$3.txt"
}

# value FILE METRIC: the metric's value from one run's output.
value() {
  awk -v w="$workload" -v m="$2" '$1 == w && $2 == m { print $3; exit }' "$1"
}

for ((i = 0; i < n; i++)); do
  seed=$((seed0 + i))
  if ((i % 2 == 0)); then
    run parent "$parent" "$seed"
    run change "$change" "$seed"
  else
    run change "$change" "$seed"
    run parent "$parent" "$seed"
  fi
  echo "pair $i seed $seed: wall_s parent $(value "$out/parent.$seed.txt" wall_s)" \
    "change $(value "$out/change.$seed.txt" wall_s)"
done

# stats: median, first and third quartile (linear interpolation) of
# the numbers on stdin.
stats() {
  sort -g | awk '{ v[NR] = $1 }
    function q(p,   h, lo) { h = 1 + (NR - 1) * p; lo = int(h); return v[lo] + (h - lo) * (v[lo + 1 < NR ? lo + 1 : NR] - v[lo]) }
    END { printf "%.4g %.4g %.4g\n", q(0.5), q(0.25), q(0.75) }'
}

printf '%-12s %-28s %-28s %-7s %s\n' metric "parent median [q1, q3]" "change median [q1, q3]" ratio "wins verdict"
for m in "${metrics[@]}"; do
  wins=0 losses=0
  : >"$out/$m.parent" && : >"$out/$m.change" && : >"$out/$m.ratio"
  for ((i = 0; i < n; i++)); do
    seed=$((seed0 + i))
    p=$(value "$out/parent.$seed.txt" "$m")
    c=$(value "$out/change.$seed.txt" "$m")
    echo "$p" >>"$out/$m.parent"
    echo "$c" >>"$out/$m.change"
    awk -v p="$p" -v c="$c" 'BEGIN { print c / p }' >>"$out/$m.ratio"
    if awk -v p="$p" -v c="$c" 'BEGIN { exit !(c < p) }'; then
      wins=$((wins + 1))
    elif awk -v p="$p" -v c="$c" 'BEGIN { exit !(p < c) }'; then
      losses=$((losses + 1))
    fi
  done
  read -r pm pq1 pq3 < <(stats <"$out/$m.parent")
  read -r cm cq1 cq3 < <(stats <"$out/$m.change")
  read -r ratio _ < <(stats <"$out/$m.ratio")
  verdict=$(awk -v w="$wins" -v l="$losses" -v n="$n" -v pm="$pm" -v cm="$cm" -v q1="$pq1" -v q3="$pq3" \
    'BEGIN { print (w >= 0.9 * n && pm - cm > q3 - q1) ? "gain" : (l >= 0.9 * n && cm - pm > q3 - q1) ? "regression" : "no claim" }')
  printf '%-12s %-28s %-28s %-7s %s/%s %s\n' "$m" "$pm [$pq1, $pq3]" "$cm [$cq1, $cq3]" "$ratio" "$wins" "$n" "$verdict"
done
echo "reports: $out"
