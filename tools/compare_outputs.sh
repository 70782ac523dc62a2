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
#     `split`, `train` (fold 0, PL+B+T), then `evaluate --diagnostics` on the
#     test and the prediction set, so the per-query CSVs are compared too.
# Each pair of output directories is compared with `diff -r`. The script
# fails on any difference, on a failed command and on any `.partial` file
# left behind.
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

# the stage commands, run inside the output directory so that the paths
# the checkpoint records are the same on both sides
staged() {
  local out=$1 seed=$2
  mkdir -p "$out"
  cd "$out"
  python3 -m hieremb.cli gen-data --config "$tmp/rerun.cfg" --seed "$seed" --out data
  python3 -m hieremb.cli split --taxonomy data/taxonomy.json --dataset data/dataset.jsonl \
    --folds 3 --seed "$seed" --out splits
  python3 -m hieremb.cli train --config "$tmp/rerun.cfg" --seed "$seed" \
    --taxonomy data/taxonomy.json --dataset data/dataset.jsonl \
    --split splits/split_fold_0.json --fold 0 --losses PL+B+T --out cell
  for subset in test prediction; do
    python3 -m hieremb.cli evaluate --checkpoint cell/checkpoint.json --set "$subset" \
      --out "cell/$subset.json" --diagnostics "cell/$subset.csv"
  done
}

status=0
cd "$tmp"
for config in rerun wide-tree staged; do
  for seed in 0 1; do
    for side in ref work; do
      src="$tmp/ref/src"
      [ "$side" = work ] && src="$repo/src"
      out="$tmp/out/$side/$config-$seed"
      # the metrics' skip warnings are the same on both sides; errors still show
      export PYTHONPATH="$src" PYTHONWARNINGS=ignore::UserWarning
      if [ "$config" = staged ]; then
        (staged "$out" "$seed") > /dev/null
      else
        python3 -m hieremb.cli run --config "$tmp/$config.cfg" --seed "$seed" --out "$out" > /dev/null
      fi
    done
    if diff -r "$tmp/out/ref/$config-$seed" "$tmp/out/work/$config-$seed"; then
      echo "$config seed $seed: $(find "$tmp/out/work/$config-$seed" -type f | wc -l) files identical"
    else
      status=1
    fi
  done
done

if find "$tmp/out" -name '*.partial' | grep .; then
  echo "partial files left behind"
  status=1
fi
[ "$status" = 0 ] && echo "every file identical, no .partial file"
exit "$status"
