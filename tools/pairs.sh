#!/bin/sh
# Alternating pairs of the serving benchmark between two revisions.
#
#   tools/pairs.sh <base> <change> --workload W --pairs N
#                  [--seed S] [--seconds T] [--trace 0|1] [--dir D] [--out F]
#
# <base> and <change> are git revisions of this repository; `worktree`
# stands for the working tree's tracked files as they are now (stage a new
# file for it to count). Each side is unpacked with `git archive` into
# D/base or D/change and built once, release, into its own
# CARGO_TARGET_DIR (D/base-target, D/change-target). Then pair k
# (k = 0..N-1) runs BENCHMARK.json's command on each side with seed S+k
# (S defaults to 1), for T seconds (default: BENCHMARK.json's
# run_seconds), untraced unless `--trace 1`; pair k runs the base first
# when k is even and the change first when it is odd.
#
# The record goes to F (default: stdout), progress to stderr. It holds
# every run's result object as the benchmark printed it, and for every
# metric BENCHMARK.json names that the runs report: the quartiles of each
# side (inclusive method), the change's median over the base's, the
# pairs in which the change read better, and the gap between the medians
# in the better direction over the base's interquartile range. `nproc` and the load average before and
# after the series describe the host.
set -eu

usage() {
    echo "usage: tools/pairs.sh <base> <change> --workload W --pairs N [--seed S] [--seconds T] [--trace 0|1] [--dir D] [--out F]" >&2
    exit 2
}

[ $# -ge 2 ] || usage
base_rev=$1 change_rev=$2
shift 2
workload='' pairs='' seed=1 seconds='' trace=0 dir='' out=''
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
        --workload) workload=$2 ;;
        --pairs) pairs=$2 ;;
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        --trace) trace=$2 ;;
        --dir) dir=$2 ;;
        --out) out=$2 ;;
        *) usage ;;
    esac
    shift 2
done
[ -n "$workload" ] && [ -n "$pairs" ] || usage

root=$(cd "$(dirname "$0")/.." && pwd)
spec="$root/BENCHMARK.json"
# BENCHMARK.json's command, e.g. ["bash", "benchmark/run.sh"], as words.
command=$(tr -d '\n' <"$spec" | sed 's/.*"command"[ ]*:[ ]*\[\([^]]*\)\].*/\1/' | tr -d '",')
[ -n "$seconds" ] || seconds=$(tr -d '\n' <"$spec" | sed 's/.*"run_seconds"[ ]*:[ ]*\([0-9.]*\).*/\1/')
[ -n "$dir" ] || dir=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
mkdir -p "$dir"
runs="$dir/runs.txt"
: >"$runs"

# Unpack and build one side: <side> <revision>. Prints the commit built.
prepare() {
    rev=$2
    if [ "$rev" = worktree ]; then
        # A commit of the working tree's tracked files; HEAD if unchanged.
        rev=$(git -C "$root" stash create)
        [ -n "$rev" ] || rev=HEAD
    fi
    commit=$(git -C "$root" rev-parse --short "$rev^{commit}")
    rm -rf "${dir:?}/$1"
    mkdir -p "$dir/$1"
    git -C "$root" archive "$commit" | tar -x -C "$dir/$1"
    echo "pairs: building $1 ($2 = $commit)" >&2
    CARGO_TARGET_DIR="$dir/$1-target" cargo build --release --offline --quiet \
        --manifest-path "$dir/$1/benchmark/Cargo.toml" >&2
    echo "$commit"
}

# One run: <side> <pair> <seed>. Appends `side pair seed exit result` to
# the runs file, the result being the last line the command printed.
run() {
    echo "pairs: pair $2 $1 seed $3" >&2
    status=0
    (cd "$dir/$1" && CARGO_TARGET_DIR="$dir/$1-target" $command \
        --workload "$workload" --seed "$3" --seconds "$seconds" --trace "$trace") \
        >"$dir/$1.stdout" 2>>"$dir/$1.stderr" || status=$?
    result=$(tail -n 1 "$dir/$1.stdout")
    case $result in
        '{'*) ;;
        *) result=null ;;
    esac
    printf '%s %s %s %s %s\n' "$1" "$2" "$3" "$status" "$result" >>"$runs"
}

loadavg() {
    cut -d' ' -f1-3 /proc/loadavg 2>/dev/null || uptime | sed 's/.*load average[s]*: //'
}

base_commit=$(prepare base "$base_rev")
change_commit=$(prepare change "$change_rev")
load_before=$(loadavg)
k=0
while [ "$k" -lt "$pairs" ]; do
    s=$((seed + k))
    if [ $((k % 2)) -eq 0 ]; then
        run base "$k" "$s"
        run change "$k" "$s"
    else
        run change "$k" "$s"
        run base "$k" "$s"
    fi
    k=$((k + 1))
done
load_after=$(loadavg)

# Every metric BENCHMARK.json names, with the direction that is better.
directions=$(tr -d '\n' <"$spec" | tr '{' '\n' |
    sed -n 's/.*"name"[ ]*:[ ]*"\([^"]*\)".*"better"[ ]*:[ ]*"\([a-z]*\)".*/\1 \2/p')

record() {
    printf '{\n "what": "alternating pairs of `%s --workload %s --seed <s> --seconds %s --trace %s`",\n' \
        "$command" "$workload" "$seconds" "$trace"
    printf ' "base": "%s",\n "change": "%s",\n' "$base_commit" "$change_commit"
    printf ' "workload": "%s",\n "pairs": %s,\n "first_seed": %s,\n' "$workload" "$pairs" "$seed"
    printf ' "order": "pair k runs the base first when k is even, the change first when it is odd",\n'
    printf ' "quartiles": "inclusive method over the runs of a side",\n'
    printf ' "host": {"nproc": %s, "loadavg_before": "%s", "loadavg_after": "%s"},\n' \
        "$(nproc)" "$load_before" "$load_after"
    printf ' "runs": [\n'
    awk '{ r = $0; for (i = 0; i < 4; i++) sub(/^[^ ]+ /, "", r)
           printf "%s  {\"side\": \"%s\", \"pair\": %s, \"seed\": %s, \"exit\": %s, \"result\": %s}", \
               (NR > 1 ? ",\n" : ""), $1, $2, $3, $4, r }
         END { printf "\n" }' "$runs"
    printf ' ],\n'
    awk '{ if (match($0, /"failed": *[0-9]+/)) { v = substr($0, RSTART, RLENGTH); sub(/.*: */, "", v); n[$1] += v } }
         END { printf " \"failed\": {\"base\": %d, \"change\": %d},\n", n["base"], n["change"] }' "$runs"
    printf ' "metrics": {\n'
    echo "$directions" | awk -v runs="$runs" '
        # Linear interpolation between the closest ranks of sorted v[1..n].
        function quantile(v, n, p,   h, lo) {
            h = 1 + (n - 1) * p; lo = int(h)
            return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
        }
        function sort(v, n,   i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        }
        function side(name, v, n) {
            sort(v, n)
            q1[name] = quantile(v, n, 0.25); med[name] = quantile(v, n, 0.5); q3[name] = quantile(v, n, 0.75)
            return sprintf("{\"q1\": %.6g, \"median\": %.6g, \"q3\": %.6g}", q1[name], med[name], q3[name])
        }
        { better[$1] = $2; names[++m] = $1 }
        END {
            while ((getline line < runs) > 0) {
                split(line, f, " ")
                for (i = 1; i <= m; i++) {
                    # A metric is printed as `"name": {"value": v, ...}`.
                    key = "\"" names[i] "\": *[{]\"value\": *[-0-9.eE+]+"
                    if (!match(line, key)) continue
                    val = substr(line, RSTART, RLENGTH); sub(/.*: */, "", val)
                    value[f[1], f[2], names[i]] = val + 0
                    seen[names[i]] = 1
                }
            }
            for (i = 1; i <= m; i++) {
                name = names[i]
                if (!(name in seen)) continue
                nb = nc = won = 0; delete b; delete c
                for (k = 0; (("base", k, name) in value) || (("change", k, name) in value); k++) {
                    if (("base", k, name) in value) b[++nb] = value["base", k, name]
                    if (("change", k, name) in value) c[++nc] = value["change", k, name]
                    if ((("base", k, name) in value) && (("change", k, name) in value)) {
                        d = value["change", k, name] - value["base", k, name]
                        if ((better[name] == "lower" && d < 0) || (better[name] == "higher" && d > 0)) won++
                    }
                }
                if (nb == 0 || nc == 0) continue
                bs = side("b", b, nb); cs = side("c", c, nc)
                gap = better[name] == "lower" ? med["b"] - med["c"] : med["c"] - med["b"]
                iqr = q3["b"] - q1["b"]
                printf "%s  \"%s\": {\"better\": \"%s\", \"base\": %s, \"change\": %s, \"change_over_base_median\": %s, \"change_better_pairs\": %d, \"median_gap_over_base_iqr\": %s}", \
                    (printed++ ? ",\n" : ""), name, better[name], bs, cs, \
                    (med["b"] != 0 ? sprintf("%.4f", med["c"] / med["b"]) : "null"), won, \
                    (iqr > 0 ? sprintf("%.3f", gap / iqr) : "null")
            }
            printf "\n"
        }'
    printf ' }\n}\n'
}

if [ -n "$out" ]; then
    record >"$out"
    echo "pairs: wrote $out" >&2
else
    record
fi
