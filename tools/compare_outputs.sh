#!/usr/bin/env bash
# Compare every file `hieremb run` writes at a git ref with what the working
# tree writes, byte for byte.
#
#   tools/compare_outputs.sh <git-ref>
#
# The ref's files are exported with `git archive` into a temporary
# directory (nothing is registered in the repository). Both sides run, at
# seeds 0 and 1:
#   - rerun: `hieremb run` on the CI cross-process rerun grid (3 folds x 6
#     combinations);
#   - wide-tree: `hieremb run` on the `wide-tree` benchmark shape (branching
#     6,6,5, 14 samples per leaf, 5 folds x PL+B+T, 2 epochs);
#   - staged: the stage commands on the rerun grid's data: `gen-data`,
#     `split`, `sample-triplets` (fold 0, whose lines name the pruned tree's
#     nodes), `train` (fold 0, PL+B+T), then `evaluate --diagnostics` on the
#     test and the prediction set, so the per-query CSVs are compared too;
#   - staged-large: the same chain on the `staged-large` benchmark shape
#     (branching 3,4,4, 240 samples per leaf, 5 folds, 20 epochs), whose
#     pools (912 and 2,400 members) span several blocks of query rows.
# Each pair of output directories is compared with `diff -r`. The script
# fails on any difference, on a failed command and on any `.partial` file
# left behind. It names each file that differs; for a CSV of the same shape
# on both sides (the per-query diagnostics) it also counts the rows that
# differ and their largest gap in units in the last place (ulp).
# Last it prints, without failing on them, the line count of
# `src/hieremb/*.py` at the ref and in the working tree, and whether
# `tests/test_acceptance.py` differs from the ref.
set -euo pipefail

ref=${1:?usage: tools/compare_outputs.sh <git-ref>}
repo=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/ref"
git -C "$repo" archive "$ref" | tar -x -C "$tmp/ref"
echo "comparing $(git -C "$repo" rev-parse --short "$ref") with the working tree of $repo"

printf '%s\n' 'synth_depth = 3' 'synth_branching = 2-2,2-3' \
  'synth_samples_per_leaf = 40-60' 'synth_feature_dim = 8' 'k_folds = 3' \
  'combos = L,L+T,PL,PL+T,PL+B,PL+B+T' 'epochs = 2' 'seed = 0' \
  'hidden_dim = 16' 'embedding_dim = 8' > "$tmp/rerun.cfg"
printf '%s\n' 'synth_depth = 4' 'synth_branching = 6,6,5' \
  'synth_samples_per_leaf = 14' 'k_folds = 5' 'combos = PL+B+T' 'epochs = 2' > "$tmp/wide-tree.cfg"
printf '%s\n' 'synth_depth = 4' 'synth_branching = 3,4,4' 'synth_samples_per_leaf = 240' \
  'k_folds = 5' 'epochs = 20' > "$tmp/staged-large.cfg"

# the stage commands, run inside the output directory so that the paths
# the checkpoint records are the same on both sides
staged() {
  local out=$1 seed=$2 config=$3 folds=$4
  mkdir -p "$out"
  cd "$out"
  python3 -m hieremb.cli gen-data --config "$config" --seed "$seed" --out data
  python3 -m hieremb.cli split --taxonomy data/taxonomy.json --dataset data/dataset.jsonl \
    --folds "$folds" --seed "$seed" --out splits
  python3 -m hieremb.cli sample-triplets --taxonomy data/taxonomy.json \
    --dataset data/dataset.jsonl --split splits/split_fold_0.json --epoch-seed "$seed" \
    --out triplets.jsonl
  python3 -m hieremb.cli train --config "$config" --seed "$seed" \
    --taxonomy data/taxonomy.json --dataset data/dataset.jsonl \
    --split splits/split_fold_0.json --fold 0 --losses PL+B+T --out cell
  for subset in test prediction; do
    python3 -m hieremb.cli evaluate --checkpoint cell/checkpoint.json --set "$subset" \
      --out "cell/$subset.json" --diagnostics "cell/$subset.csv"
  done
}

status=0
cd "$tmp"
for config in rerun wide-tree staged staged-large; do
  for seed in 0 1; do
    for side in ref work; do
      src="$tmp/ref/src"
      [ "$side" = work ] && src="$repo/src"
      out="$tmp/out/$side/$config-$seed"
      # the metrics' skip warnings are the same on both sides; errors still show
      export PYTHONPATH="$src" PYTHONWARNINGS=ignore::UserWarning
      if [ "$config" = staged ]; then
        (staged "$out" "$seed" "$tmp/rerun.cfg" 3) > /dev/null
      elif [ "$config" = staged-large ]; then
        (staged "$out" "$seed" "$tmp/staged-large.cfg" 5) > /dev/null
      else
        python3 -m hieremb.cli run --config "$tmp/$config.cfg" --seed "$seed" --out "$out" > /dev/null
      fi
    done
    if diff -rq "$tmp/out/ref/$config-$seed" "$tmp/out/work/$config-$seed" > "$tmp/differ"; then
      echo "$config seed $seed: $(find "$tmp/out/work/$config-$seed" -type f | wc -l) files identical"
    else
      status=1
      grep -v '^Files .* differ$' "$tmp/differ" || true  # files only one side wrote
      sed -n 's/^Files \(.*\) and \(.*\) differ$/\1\n\2/p' "$tmp/differ" | xargs -r -n 2 python3 -c '
import csv, math, sys

def ulps(x, y):  # the gap between two cells in units in the last place
    try:
        a, b = float(x), float(y)
    except ValueError:
        return 0 if x == y else math.inf
    return 0 if a == b else abs(a - b) / math.ulp(max(abs(a), abs(b)))

old, new = (list(csv.reader(open(path))) for path in sys.argv[1:])
if not sys.argv[2].endswith(".csv") or [len(r) for r in old] != [len(r) for r in new]:
    sys.exit(print(f"{sys.argv[2]}: differs"))
gaps = [max(map(ulps, a, b)) for a, b in zip(old, new) if a != b]
print(f"{sys.argv[2]}: {len(gaps)} of {len(new) - 1} rows differ, by at most {max(gaps, default=0):g} ulp")
'
    fi
  done
done

if find "$tmp/out" -name '*.partial' | grep .; then
  echo "partial files left behind"
  status=1
fi
echo "src/hieremb/*.py: $(cat "$tmp"/ref/src/hieremb/*.py | wc -l) lines at the ref," \
  "$(cat "$repo"/src/hieremb/*.py | wc -l) in the working tree"
if git -C "$repo" diff --quiet "$ref" -- tests/test_acceptance.py; then
  echo "tests/test_acceptance.py: as at the ref"
else
  echo "tests/test_acceptance.py: differs from the ref"
fi
[ "$status" = 0 ] && echo "every file identical, no .partial file"
exit "$status"
