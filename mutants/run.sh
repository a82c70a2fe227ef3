#!/usr/bin/env bash
# Mutation checks: each `*.mutant` file in this directory breaks one line of
# the program on purpose and names the test that must then fail.
#
#   mutants/run.sh --check        every `old` snippet still matches its file
#                                 exactly once (no build; fails on a stale one)
#   mutants/run.sh [NAME ...]     apply each mutant (default: all) in a scratch
#                                 copy of the tree and run its test
#
# A mutant file holds `key: value` header lines (`guards`, `file`, `test`),
# then `--- old` and the exact snippet, then `--- new` and its replacement.
#
# Each mutant is reported as
#   killed    its test failed, as it must
#   survived  its test passed: the catch is lost
#   hung      its test ran past MUTANT_TIMEOUT seconds (default 900)
#   stale     its `old` snippet no longer matches exactly once, or the
#             mutated tree does not build
# and the run exits non-zero unless every mutant was killed.
#
# The scratch copy (MUTANTS_SCRATCH, default a fresh temporary directory)
# holds the tracked and untracked, non-ignored files of the working tree and
# its own cargo target directory, so the tree and its build are left alone.
# Nothing is fetched: the vendored crates build offline.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)

# Reads one mutant file into the globals guards, file, test, old and new.
parse() {
    guards='' file='' test='' old='' new=''
    local section='' line
    local -a olds=() news=()
    while IFS= read -r line || [[ -n $line ]]; do
        case $section:$line in
            *:'--- old') section=old ;;
            *:'--- new') section=new ;;
            old:*) olds+=("$line") ;;
            new:*) news+=("$line") ;;
            :guards:*) guards=${line#guards: } ;;
            :file:*) file=${line#file: } ;;
            :test:*) test=${line#test: } ;;
        esac
    done < "$1"
    old=$(printf '%s\n' "${olds[@]}")
    new=$(printf '%s\n' "${news[@]}")
}

# Prints how many times `old` occurs in file $1 (0, 1 or "many").
occurrences() {
    local text
    text=$(cat "$1"; printf x)
    [[ $text == *"$old"* ]] || { echo 0; return; }
    local rest=${text#*"$old"}
    [[ $rest == *"$old"* ]] && echo many || echo 1
}

# Replaces the one occurrence of `old` in file $1 with `new`.
apply() {
    local text
    text=$(cat "$1"; printf x)
    text=${text%x}
    printf '%s' "${text%%"$old"*}$new${text#*"$old"}" > "$1"
}

mutants=()
check_only=false
for arg in "$@"; do
    case $arg in
        --check) check_only=true ;;
        *) mutants+=("$here/$arg.mutant") ;;
    esac
done
if [[ ${#mutants[@]} -eq 0 ]]; then
    mutants=("$here"/*.mutant)
fi

if $check_only; then
    bad=0
    for m in "${mutants[@]}"; do
        name=$(basename "$m" .mutant)
        parse "$m"
        if [[ -z $file || -z $test || -z $old || ! -f $root/$file ]]; then
            echo "stale    $name (missing file, test or snippet)"
            bad=1
        elif [[ $(occurrences "$root/$file") != 1 ]]; then
            echo "stale    $name ($file: \`old\` matches $(occurrences "$root/$file") times)"
            bad=1
        else
            echo "ok       $name"
        fi
    done
    exit $bad
fi

scratch=${MUTANTS_SCRATCH:-$(mktemp -d)}
tree=$scratch/tree
mkdir -p "$tree"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
    tar --null -T - -cf -) | tar -xf - -C "$tree"
export CARGO_TARGET_DIR=$scratch/target
echo "scratch tree $tree, target $CARGO_TARGET_DIR"

failed=0
for m in "${mutants[@]}"; do
    name=$(basename "$m" .mutant)
    parse "$m"
    target=$tree/$file
    if [[ ! -f $target || $(occurrences "$target") != 1 ]]; then
        echo "stale    $name"
        failed=1
        continue
    fi
    cp "$target" "$target.orig"
    apply "$target"
    log=$scratch/$name.log
    set +e
    (cd "$tree" && timeout "${MUTANT_TIMEOUT:-900}" bash -c "$test") > "$log" 2>&1
    status=$?
    set -e
    mv "$target.orig" "$target"
    if [[ $status -eq 0 ]]; then
        verdict=survived
    elif [[ $status -eq 124 ]]; then
        verdict=hung
    elif grep -q 'could not compile' "$log"; then
        verdict=stale
    else
        verdict=killed
    fi
    [[ $verdict == killed ]] || failed=1
    printf '%-8s %s (%s; log %s)\n' "$verdict" "$name" "$guards" "$log"
done
exit $failed
