#!/usr/bin/env bash
# Paired perfbench runs: a reference commit against the working tree.
#
#   bash scripts/perfpairs.sh REF WORKLOAD PAIRS [SEED]
#   make perfpairs REF=HEAD~1 WORKLOAD=churn PAIRS=10 [SEED=101]
#
# REF is `git archive`d into $CARGO_TARGET_DIR/perfpairs/ref (default
# .bench_build). Each pair runs
#
#   bash perfbench/run.sh --workload WORKLOAD --seed S --seconds 30 --trace 0
#
# once in the reference tree and once in the working tree, one at a
# time, each side with its own build directory. Pair k uses seed
# SEED+k on both sides (SEED defaults to 1), and the side that runs
# first alternates from pair to pair. The script then prints, for every
# metric, each side's median and quartiles, the ratio of the medians and
# how many pairs the working tree won: better in the direction
# BENCHMARK.json gives, ties counting for neither side. Raw results stay
# in the output directory as ref.jsonl and new.jsonl, one line per pair.
#
# Run it from the repository root, with jq installed. It only reads
# perfbench/ and BENCHMARK.json.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: $0 REF WORKLOAD PAIRS [SEED]" >&2
	exit 2
fi
ref=$1 workload=$2 pairs=$3 seed=${4:-1}
case $pairs in '' | *[!0-9]*) echo "perfpairs: PAIRS must be a positive integer" >&2; exit 2 ;; esac
case $seed in '' | *[!0-9]*) echo "perfpairs: SEED must be a non-negative integer" >&2; exit 2 ;; esac
[ "$pairs" -gt 0 ] || { echo "perfpairs: PAIRS must be a positive integer" >&2; exit 2; }
command -v jq >/dev/null || { echo "perfpairs: jq not found" >&2; exit 2; }

root=$(pwd)
[ -f "$root/BENCHMARK.json" ] && [ -f "$root/perfbench/run.sh" ] ||
	{ echo "perfpairs: run from the repository root" >&2; exit 2; }
base=${CARGO_TARGET_DIR:-.bench_build}
case $base in
/*) ;;
*) base=$root/$base ;;
esac
out=$base/perfpairs
rm -rf "$out/ref"
mkdir -p "$out/ref"
git archive "$ref" | tar -x -C "$out/ref"
: >"$out/ref.jsonl"
: >"$out/new.jsonl"

# side NAME TREE SEED: one benchmark run; its result line is appended
# to NAME.jsonl and its full output kept in NAME-SEED.log.
side() {
	local name=$1 tree=$2 s=$3 log=$out/$1-$3.log
	if ! (cd "$tree" && CARGO_TARGET_DIR="$out/build-$name" bash perfbench/run.sh \
		--workload "$workload" --seed "$s" --seconds 30 --trace 0) >"$log" 2>&1; then
		echo "perfpairs: $name run (seed $s) failed; see $log" >&2
		exit 1
	fi
	tail -n 1 "$log" >>"$out/$name.jsonl"
}

for ((k = 0; k < pairs; k++)); do
	s=$((seed + k))
	echo "pair $((k + 1))/$pairs: seed $s" >&2
	if ((k % 2 == 0)); then
		side ref "$out/ref" "$s"
		side new "$root" "$s"
	else
		side new "$root" "$s"
		side ref "$out/ref" "$s"
	fi
done

echo "$workload: $(git rev-parse --short "$ref") (ref) vs working tree, $pairs pairs, seeds $seed..$((seed + pairs - 1))"
jq -rn --slurpfile ref "$out/ref.jsonl" --slurpfile new "$out/new.jsonl" \
	--slurpfile bench "$root/BENCHMARK.json" '
	# Linear interpolation between order statistics, as stats.QuantileSorted.
	def q($p): sort as $s | ($s | length) as $n |
		if $n == 1 then $s[0] else
			(($n - 1) * $p) as $pos | ($pos | floor) as $lo | ($pos | ceil) as $hi |
			if $lo == $hi then $s[$lo] else $s[$lo] * (1 - ($pos - $lo)) + $s[$hi] * ($pos - $lo) end
		end;
	def fmt: if . == null then "-" elif (. | fabs) >= 100 then (. * 10 | round / 10 | tostring)
		else (. * 1000 | round / 1000 | tostring) end;
	([$bench[0].end_to_end[], $bench[0].per_layer[]] | map({(.name): .better}) | add) as $better |
	(["metric", "ref p50 [p25, p75]", "new p50 [p25, p75]", "new/ref", "new won"] | @tsv),
	(["ok", ($ref | map(select(.correct)) | length | tostring) + "/\($ref | length) correct, failed \($ref | map(.failed) | add)",
		($new | map(select(.correct)) | length | tostring) + "/\($new | length) correct, failed \($new | map(.failed) | add)", "", ""] | @tsv),
	($ref[0].metrics | keys[]) as $m |
	[$ref[] | .metrics[$m].value] as $r | [$new[] | .metrics[$m].value] as $n |
	($better[$m] // "lower") as $dir |
	([range(0; [$r, $n] | map(length) | min)] |
		map(if $dir == "higher" then ($n[.] > $r[.]) else ($n[.] < $r[.]) end) |
		map(select(.)) | length) as $won |
	[$m + " (" + ($ref[0].metrics[$m].unit) + ", " + $dir + " is better)",
		"\($r | q(0.5) | fmt) [\($r | q(0.25) | fmt), \($r | q(0.75) | fmt)]",
		"\($n | q(0.5) | fmt) [\($n | q(0.25) | fmt), \($n | q(0.75) | fmt)]",
		(if ($r | q(0.5)) == 0 then "-" else (($n | q(0.5)) / ($r | q(0.5)) | fmt) end),
		"\($won)/\([$r, $n] | map(length) | min)"] | @tsv' |
	awk -F'\t' '{ printf "%-44s %-28s %-28s %-8s %s\n", $1, $2, $3, $4, $5 }'
