#!/usr/bin/env bash
# Paired benchmark comparison of two checkouts:
#
#   bash scripts/bench_pairs.sh PARENT CHANGE WORKLOAD N SEED0
#
# Runs `bench/run.sh -workload WORKLOAD -seed S -trace 0` for the
# PARENT and CHANGE checkout directories N times each, at seeds SEED0,
# SEED0+1, ..., alternating which side runs first and from where. Both
# checkouts are first staged, without .git and with their .bench_build/
# (so a warm build cache stays warm), into two slot directories of one
# fresh directory; pair i runs PARENT first and from slot 0 when i is
# even, and the slots swap on odd pairs (a rename), so neither side
# keeps the path, filesystem or VCS stamp it was given; an A/A run
# (one checkout as both sides) should read "no claim". Each run lasts
# the benchmark's run length, run_seconds in this repo's
# BENCHMARK.json. Prints every pair, then
# for each end-to-end metric each side's median and quartiles, the
# median paired ratio (change/parent), the pairs the change won (lower
# is better; ties count for neither) and the verdict: a gain holds
# when the change wins at least nine tenths of the pairs and its
# median is below the parent's by more than the parent's interquartile
# range; a regression mirrors it, with the parent winning at least
# nine tenths of the pairs and the change's median above the parent's
# by more than that range.
#
# Not a CI step: a measurement tool. Each slot builds its own
# benchmark under its own .bench_build/; the slots are removed at the
# end. Raw reports stay in a fresh temporary directory, printed at the
# end.
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

# The slots: PARENT's tree starts in $slots/0 and CHANGE's in
# $slots/1; parent_slot tracks where PARENT's tree is.
slots=$(mktemp -d)
trap 'rm -rf "$slots"' EXIT
for side in 0 1; do
  src=$parent
  if ((side == 1)); then src=$change; fi
  mkdir "$slots/$side"
  tar -C "$src" --exclude=./.git -cf - . | tar -C "$slots/$side" -xf -
done
parent_slot=0

# swap: exchange the two slots' trees.
swap() {
  mv "$slots/0" "$slots/t" && mv "$slots/1" "$slots/0" && mv "$slots/t" "$slots/1"
  parent_slot=$((1 - parent_slot))
}

# run SIDE SEED: one benchmark run of SIDE (parent or change) from its
# slot, its metric lines kept in $out/SIDE.SEED.txt.
run() {
  local slot=$parent_slot
  if [ "$1" = change ]; then slot=$((1 - parent_slot)); fi
  (cd "$slots/$slot" && bash bench/run.sh -workload "$workload" -seed "$2" \
    -seconds "$seconds" -trace 0 -out "$out/$1.$2.json") >"$out/$1.$2.txt"
}

# value FILE METRIC: the metric's value from one run's output.
value() {
  awk -v w="$workload" -v m="$2" '$1 == w && $2 == m { print $3; exit }' "$1"
}

for ((i = 0; i < n; i++)); do
  seed=$((seed0 + i))
  if ((i % 2 != parent_slot)); then swap; fi
  if ((i % 2 == 0)); then
    run parent "$seed"
    run change "$seed"
  else
    run change "$seed"
    run parent "$seed"
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
