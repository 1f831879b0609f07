#!/bin/sh
# Same bytes from two builds: runs each build's `pelican` through the
# same commands and `cmp`s every file the two wrote.
#
#   tools/same_bytes.sh <parent-build> <build>
#
# Each argument is a CMake build directory holding tools/pelican. For
# NSL-KDD and UNSW-NB15, at seeds 4 and 15, on Residual-41 at width 24
# and at full width (the encoded width: 121 and 196), each build runs:
#   generate;
#   train --checkpoint-dir, at --threads 1 and at --threads 4;
#   train for one epoch fewer, then --resume to the full count;
#   classify --verdicts-out, fp32 and --quantized.
# Every output is compared between the builds: the corpus CSV, the
# weights (.bin), the .meta, .pre and .quant sidecars, the PCKP
# checkpoints (weights, RMSprop caches and RNG state) and the verdicts.
# Within each build the 4-thread and the resumed weights must equal the
# 1-thread ones. Exits 1 naming the first file that differs; 0 when all
# match. About 30 s on 4 cores; files go to a temporary directory
# that is removed on exit (up to about 1 GB at a time at full width).
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 <parent-build> <build>" >&2
    exit 2
fi
A="$1/tools/pelican"
B="$2/tools/pelican"
for bin in "$A" "$B"; do
    [ -x "$bin" ] || { echo "no pelican binary at $bin" >&2; exit 2; }
done

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT

RECORDS=320  # 5 training steps per epoch at batch 64
EPOCHS=2

# run <pelican> <dir> <dataset> <seed> <channels>: every command, its
# files under <dir>.
run() {
    bin="$1" dir="$2" dataset="$3" seed="$4" channels="$5"
    mkdir -p "$dir"
    common="--dataset $dataset --csv $dir/flows.csv --channels $channels \
--seed $seed --profile-hz 0"
    "$bin" generate --dataset "$dataset" --records "$RECORDS" \
        --seed "$seed" --out "$dir/flows.csv" > /dev/null
    for threads in 1 4; do
        # shellcheck disable=SC2086
        "$bin" train $common --epochs "$EPOCHS" --threads "$threads" \
            --checkpoint-dir "$dir/ckpt_t$threads" \
            --out "$dir/model_t$threads.bin" > /dev/null
    done
    # shellcheck disable=SC2086
    "$bin" train $common --epochs $((EPOCHS - 1)) \
        --checkpoint-dir "$dir/ckpt_resumed" \
        --out "$dir/model_first.bin" > /dev/null
    # shellcheck disable=SC2086
    "$bin" train $common --epochs "$EPOCHS" \
        --checkpoint-dir "$dir/ckpt_resumed" --resume \
        --out "$dir/model_resumed.bin" > /dev/null
    for engine in fp32 int8; do
        flag=""
        [ "$engine" = int8 ] && flag="--quantized"
        # shellcheck disable=SC2086
        "$bin" classify --model "$dir/model_t1.bin" --csv "$dir/flows.csv" \
            --limit 1 --profile-hz 0 $flag \
            --verdicts-out "$dir/verdicts_$engine.txt" > /dev/null
    done
}

differs() {
    echo "differs: $1" >&2
    exit 1
}

for dataset in nsl unsw; do
    for seed in 4 15; do
        for channels in 24 0; do
            case="$dataset seed $seed width $channels"
            [ "$channels" -eq 0 ] && case="$dataset seed $seed full width"
            run "$A" "$WORK_DIR/a" "$dataset" "$seed" "$channels"
            run "$B" "$WORK_DIR/b" "$dataset" "$seed" "$channels"
            count=0
            for file in $(cd "$WORK_DIR/a" && find . -type f | sort); do
                [ -f "$WORK_DIR/b/$file" ] || differs "$case: $file (only in $1)"
                cmp -s "$WORK_DIR/a/$file" "$WORK_DIR/b/$file" \
                    || differs "$case: $file"
                count=$((count + 1))
            done
            [ "$(cd "$WORK_DIR/b" && find . -type f | wc -l)" -eq "$count" ] \
                || differs "$case: $2 wrote files $1 did not"
            for model in model_t4 model_resumed; do
                cmp -s "$WORK_DIR/b/model_t1.bin" "$WORK_DIR/b/$model.bin" \
                    || differs "$case: $model.bin against model_t1.bin"
            done
            echo "$case: $count files the same"
            rm -rf "$WORK_DIR/a" "$WORK_DIR/b"
        done
    done
done
echo "same bytes"
