#!/bin/sh
# End-to-end smoke test of the pelican CLI, run under ctest:
# generate → train → info → eval → classify, all against a temp dir.
set -e

PELICAN_BIN="$1"
WORK_DIR="$(mktemp -d)"
# On failure, print what the serve child processes logged to stderr
# before the work dir (and their logs with it) is removed, so a failed
# run can be diagnosed from the ctest output alone.
cleanup() {
    status=$1
    if [ "$status" -ne 0 ]; then
        for log in "$WORK_DIR"/*.log; do
            [ -f "$log" ] || continue
            echo "---- $log (smoke test exit $status) ----" >&2
            cat "$log" >&2
        done
    fi
    rm -rf "$WORK_DIR"
}
trap 'cleanup $?' EXIT

# Prints the port a server started in the background reports in its log
# ("<what>listening on 127.0.0.1:PORT"), polling for up to 5 s; prints
# nothing if it never does. The log may not exist yet on the first
# polls: the background job's own redirection creates it.
port_from_log() {
    pfl_port=""
    pfl_i=0
    while [ $pfl_i -lt 100 ]; do
        pfl_port="$(sed -n \
            "s/.*$2listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p" \
            "$1" 2>/dev/null || true)"
        [ -n "$pfl_port" ] && break
        sleep 0.05
        pfl_i=$((pfl_i + 1))
    done
    echo "$pfl_port"
}

"$PELICAN_BIN" generate --dataset nsl --records 300 --seed 5 \
    --out "$WORK_DIR/flows.csv"
test -s "$WORK_DIR/flows.csv"

# The reference model trains with every kind of observability off,
# the sampling profiler included; later runs `cmp` against it.
"$PELICAN_BIN" train --dataset nsl --csv "$WORK_DIR/flows.csv" \
    --blocks 2 --channels 8 --epochs 3 --profile-hz 0 \
    --out "$WORK_DIR/model.bin"
test -s "$WORK_DIR/model.bin"
test -s "$WORK_DIR/model.bin.meta"
test -s "$WORK_DIR/model.bin.pre"

# Training and int8 calibration are bit-identical for any thread count:
# the weights and the .quant sidecar written at 1 and at 4 threads
# match byte for byte.
for T in 1 4; do
    "$PELICAN_BIN" train --dataset nsl --csv "$WORK_DIR/flows.csv" \
        --blocks 2 --channels 8 --epochs 3 --threads "$T" \
        --out "$WORK_DIR/model_t$T.bin"
done
cmp "$WORK_DIR/model_t1.bin" "$WORK_DIR/model_t4.bin"
test -s "$WORK_DIR/model_t1.bin.quant"
cmp "$WORK_DIR/model_t1.bin.quant" "$WORK_DIR/model_t4.bin.quant"

"$PELICAN_BIN" info --model "$WORK_DIR/model.bin" > "$WORK_DIR/info.txt"
grep -q "residual" "$WORK_DIR/info.txt"
grep -Eq '^gemm: fp32 [a-z0-9]+ [0-9]+x[0-9]+, int8 [a-z0-9-]+ [0-9]+x[0-9]+$' \
    "$WORK_DIR/info.txt"

# The .meta sidecar keeps the bytes it always had, and write → read →
# write gives them back: a model trained with the fields `info` read
# from it writes the same file.
printf 'schema=nsl\nblocks=2\nresidual=1\nchannels=8\n' \
    | cmp - "$WORK_DIR/model.bin.meta"
BLOCKS="$(sed -n 's/^  structure: residual, \([0-9]*\) blocks.*/\1/p' \
    "$WORK_DIR/info.txt")"
CHANNELS="$(sed -n 's/^  structure: .*, channels \([0-9]*\)$/\1/p' \
    "$WORK_DIR/info.txt")"
"$PELICAN_BIN" train --dataset nsl --csv "$WORK_DIR/flows.csv" \
    --blocks "$BLOCKS" --channels "$CHANNELS" --epochs 1 --profile-hz 0 \
    --out "$WORK_DIR/model_meta.bin" > /dev/null
cmp "$WORK_DIR/model.bin.meta" "$WORK_DIR/model_meta.bin.meta"

# `info` exits 1, naming the file, on a .meta it cannot parse: cut off
# mid-line, a typo in a number, a key missing. The weights and
# sidecars beside it are intact (`info` reads them with the good .meta),
# so the .meta is what fails.
mkdir "$WORK_DIR/badmeta"
for f in model.bin model.bin.pre model.bin.quant model.bin.meta; do
    cp "$WORK_DIR/$f" "$WORK_DIR/badmeta/$f"
done
"$PELICAN_BIN" info --model "$WORK_DIR/badmeta/model.bin" > /dev/null
for bad in truncated typo missing; do
    case $bad in
        truncated) head -c 30 "$WORK_DIR/model.bin.meta" ;;
        typo) sed 's/^blocks=.*/blocks=1O/' "$WORK_DIR/model.bin.meta" ;;
        missing) grep -v '^channels=' "$WORK_DIR/model.bin.meta" ;;
    esac > "$WORK_DIR/badmeta/model.bin.meta"
    STATUS=0
    "$PELICAN_BIN" info --model "$WORK_DIR/badmeta/model.bin" > /dev/null \
        2> "$WORK_DIR/badmeta/err.txt" || STATUS=$?
    test "$STATUS" -eq 1
    grep -q "badmeta/model.bin.meta" "$WORK_DIR/badmeta/err.txt"
done

# Checkpointed training + resume: the first run snapshots each epoch;
# the second picks up from the newest checkpoint and trains onward.
"$PELICAN_BIN" train --dataset nsl --csv "$WORK_DIR/flows.csv" \
    --blocks 2 --channels 8 --epochs 2 \
    --checkpoint-dir "$WORK_DIR/ckpt" --out "$WORK_DIR/model_ck.bin"
ls "$WORK_DIR/ckpt" | grep -q "checkpoint-.*\.ckpt"
"$PELICAN_BIN" train --dataset nsl --csv "$WORK_DIR/flows.csv" \
    --blocks 2 --channels 8 --epochs 3 \
    --checkpoint-dir "$WORK_DIR/ckpt" --resume \
    --out "$WORK_DIR/model_resumed.bin" | grep -q "resuming"
test -s "$WORK_DIR/model_resumed.bin"

"$PELICAN_BIN" eval --model "$WORK_DIR/model.bin" \
    --csv "$WORK_DIR/flows.csv" | grep -q "ACC"

# Observability: the same training run with metrics + tracing + run log
# and the profiler at 997 Hz must emit all three artifacts AND produce
# a model bit-identical to the all-off one (instrumentation only reads
# clocks and writes side buffers).
"$PELICAN_BIN" train --dataset nsl --csv "$WORK_DIR/flows.csv" \
    --blocks 2 --channels 8 --epochs 3 --verbose \
    --metrics-out "$WORK_DIR/metrics.prom" \
    --trace-out "$WORK_DIR/trace.json" \
    --run-log "$WORK_DIR/run.jsonl" \
    --log-file "$WORK_DIR/pelican.log" \
    --profile-hz 997 --profile-out "$WORK_DIR/train_profile.folded" \
    --out "$WORK_DIR/model_obs.bin"
cmp "$WORK_DIR/model.bin" "$WORK_DIR/model_obs.bin"

# Exit-time profile dump: collapsed-stack grammar (frames SPACE count),
# no stray spaces — what flamegraph.pl / speedscope ingest. A very fast
# run may legitimately catch zero samples; the grammar check still runs.
test -f "$WORK_DIR/train_profile.folded"
! grep -qvE '^[^ ]+ [0-9]+$' "$WORK_DIR/train_profile.folded"

# Prometheus text: at least 10 pelican_* series, each with HELP/TYPE.
test "$(grep -c '^pelican_' "$WORK_DIR/metrics.prom")" -ge 10
grep -q '^# HELP pelican_' "$WORK_DIR/metrics.prom"
grep -q '^# TYPE pelican_' "$WORK_DIR/metrics.prom"

# Chrome trace JSON: parseable, with complete ("X") span events.
if command -v jq >/dev/null 2>&1; then
    jq -e '.traceEvents | map(select(.ph == "X")) | length > 0' \
        "$WORK_DIR/trace.json" >/dev/null
else
    grep -q '"ph":"X"' "$WORK_DIR/trace.json"
fi

# Run log: one JSON object per line, run_start first, run_end last.
if command -v jq >/dev/null 2>&1; then
    jq -e . "$WORK_DIR/run.jsonl" >/dev/null
fi
head -n 1 "$WORK_DIR/run.jsonl" | grep -q '"event": "run_start"'
tail -n 1 "$WORK_DIR/run.jsonl" | grep -q '"event": "run_end"'
test "$(grep -c '"event": "epoch"' "$WORK_DIR/run.jsonl")" -eq 3

# Log sink: timestamped lines mirrored to the file.
grep -q 'Z INFO tid=' "$WORK_DIR/pelican.log"

"$PELICAN_BIN" classify --model "$WORK_DIR/model.bin" \
    --records 40 --seed 9 --limit 3 | grep -q "records,"  || \
"$PELICAN_BIN" classify --model "$WORK_DIR/model.bin" \
    --records 40 --seed 9 --limit 3 | grep -q "records"

# Streaming quality telemetry: a labeled replay prints the drift score
# and the rolling DR/ACC/FAR window.
"$PELICAN_BIN" classify --model "$WORK_DIR/model.bin" \
    --records 40 --seed 9 --limit 2 --labels-for-quality \
    > "$WORK_DIR/classify_quality.out"
grep -q "drift score" "$WORK_DIR/classify_quality.out"
grep -q "rolling window" "$WORK_DIR/classify_quality.out"

# Live introspection: a long training run with --serve-port 0 prints
# its ephemeral port; curl every endpoint while it is still training.
if command -v curl >/dev/null 2>&1; then
    "$PELICAN_BIN" train --dataset nsl --csv "$WORK_DIR/flows.csv" \
        --blocks 2 --channels 8 --epochs 2000 --serve-port 0 \
        --profile-hz 97 \
        --out "$WORK_DIR/model_serve_long.bin" \
        > "$WORK_DIR/serve.log" 2>&1 &
    SERVE_PID=$!
    PORT="$(port_from_log "$WORK_DIR/serve.log" "")"
    test -n "$PORT"
    BASE="http://127.0.0.1:$PORT"
    curl -fsS "$BASE/healthz" | grep -q "ok"
    curl -sS "$BASE/readyz" | grep -q "ready"   # 200 or a 503 body
    curl -fsS "$BASE/buildinfo" | grep -q '"git"'
    curl -fsS "$BASE/metrics" > "$WORK_DIR/live_metrics.prom"
    grep -q '^# TYPE pelican_' "$WORK_DIR/live_metrics.prom"
    grep -q '^process_uptime_seconds ' "$WORK_DIR/live_metrics.prom"
    grep -q '^pelican_build_info{' "$WORK_DIR/live_metrics.prom"
    if command -v jq >/dev/null 2>&1; then
        curl -fsS "$BASE/metrics.json" | jq -e . >/dev/null
        curl -fsS "$BASE/trace" | jq -e '.traceEvents' >/dev/null
    else
        curl -fsS "$BASE/metrics.json" | grep -q '"name"'
        curl -fsS "$BASE/trace" | grep -q '"traceEvents"'
    fi
    curl -fsS "$BASE/stream" | grep -q '"active"'
    # /profile mid-train: a 1s windowed scrape of the still-training
    # process returns collapsed stacks attributed to the epoch span.
    curl -fsS "$BASE/profile?seconds=1" > "$WORK_DIR/live_profile.folded"
    test -s "$WORK_DIR/live_profile.folded"
    ! grep -qvE '^[^ ]+ [0-9]+$' "$WORK_DIR/live_profile.folded"
    grep -q 'epoch' "$WORK_DIR/live_profile.folded"
    curl -fsS "$BASE/profile/top" | grep -q '"samples"'
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
fi

# Serving must not change the numbers: the same 3-epoch train with the
# server up produces a bit-identical model.
"$PELICAN_BIN" train --dataset nsl --csv "$WORK_DIR/flows.csv" \
    --blocks 2 --channels 8 --epochs 3 --serve-port 0 \
    --out "$WORK_DIR/model_serve.bin" | grep -q "listening"
cmp "$WORK_DIR/model.bin" "$WORK_DIR/model_serve.bin"

# Scoring server round trip: pipe 100 records through `pelican serve`
# with the full lifecycle kit on (metrics, tracing, 1-in-1 access
# sampling, the introspection plane, the profiler at 997 Hz), compare
# the verdicts byte-for-byte against the batch CLI with all of it off
# on the same CSV — instrumentation must not change a single verdict
# byte — then SIGTERM and assert a graceful drain with exit 0.
"$PELICAN_BIN" generate --dataset nsl --records 100 --seed 11 \
    --out "$WORK_DIR/score_flows.csv"
"$PELICAN_BIN" serve --model "$WORK_DIR/model.bin" --port 0 \
    --serve-port 0 --sample-every 1 --slow-top-k 8 \
    --profile-hz 997 \
    --access-log "$WORK_DIR/access.jsonl" \
    --trace-out "$WORK_DIR/serve_trace.json" \
    > "$WORK_DIR/score_serve.log" 2>&1 &
SCORE_PID=$!
PORT="$(port_from_log "$WORK_DIR/score_serve.log" "scoring server ")"
test -n "$PORT"
"$PELICAN_BIN" score --port "$PORT" --csv "$WORK_DIR/score_flows.csv" \
    --out "$WORK_DIR/serve_verdicts.txt"
test "$(wc -l < "$WORK_DIR/serve_verdicts.txt")" -eq 100
test "$(grep -c '^ok,' "$WORK_DIR/serve_verdicts.txt")" -eq 100
"$PELICAN_BIN" classify --model "$WORK_DIR/model.bin" \
    --csv "$WORK_DIR/score_flows.csv" --limit 1 --profile-hz 0 \
    --verdicts-out "$WORK_DIR/batch_verdicts.txt" > /dev/null
cmp "$WORK_DIR/serve_verdicts.txt" "$WORK_DIR/batch_verdicts.txt"

# /slow mid-serve: the introspection plane answers with the slowest and
# sampled records as JSONL while the data plane is still up.
if command -v curl >/dev/null 2>&1; then
    HTTP_PORT="$(sed -n \
        's/.*introspection server listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
        "$WORK_DIR/score_serve.log")"
    test -n "$HTTP_PORT"
    curl -fsS "http://127.0.0.1:$HTTP_PORT/slow" > "$WORK_DIR/slow.jsonl"
    test -s "$WORK_DIR/slow.jsonl"
    if command -v jq >/dev/null 2>&1; then
        jq -e '.kind and .total_ms != null and .engine == "fp32"' \
            "$WORK_DIR/slow.jsonl" > /dev/null
    else
        grep -q '"kind": "slow"' "$WORK_DIR/slow.jsonl"
    fi
    curl -fsS "http://127.0.0.1:$HTTP_PORT/serve" \
        | grep -q '"scorer_busy_ratio"'
    # /profile mid-serve: pump score traffic until the cumulative
    # profile carries a sample dual-attributed to the batch>score span.
    # A CPU-clock timer first fires after about 4 ms of one thread's
    # CPU (kernel-tick granularity), and the server's scorers split each
    # pass's few ms between them, so no fixed pass count is enough: the
    # pump stops at the first such sample or after 30 s. Each pass's
    # verdicts must still match the batch CLI's while samples land.
    PUMP_END=$(($(date +%s) + 30))
    while :; do
        "$PELICAN_BIN" score --port "$PORT" \
            --csv "$WORK_DIR/score_flows.csv" \
            --out "$WORK_DIR/pump_verdicts.txt" > /dev/null
        cmp "$WORK_DIR/pump_verdicts.txt" "$WORK_DIR/batch_verdicts.txt"
        curl -fsS "http://127.0.0.1:$HTTP_PORT/profile?seconds=0" \
            > "$WORK_DIR/serve_profile.folded"
        grep -q 'serve_batch;serve_score' "$WORK_DIR/serve_profile.folded" \
            && break
        [ "$(date +%s)" -lt "$PUMP_END" ] || break
    done
    ! grep -qvE '^[^ ]+ [0-9]+$' "$WORK_DIR/serve_profile.folded"
    grep -q 'serve_batch;serve_score' "$WORK_DIR/serve_profile.folded"
fi

kill -TERM "$SCORE_PID"
wait "$SCORE_PID"    # graceful drain must exit 0 (set -e enforces it)
grep -q "draining scoring server" "$WORK_DIR/score_serve.log"
grep -q "drained: " "$WORK_DIR/score_serve.log"

# Access log: sample-every 1 puts one atomic JSONL line per scored
# record on disk, each with the lifecycle schema. The first score pass
# sent 100 records and the /profile pump resent the same 100-record
# file N more times, so the count is a positive multiple of 100.
ACCESS_LINES="$(wc -l < "$WORK_DIR/access.jsonl")"
test "$ACCESS_LINES" -ge 100
test $((ACCESS_LINES % 100)) -eq 0
if command -v jq >/dev/null 2>&1; then
    jq -e '.time and .verdict == "ok" and .queue_ms != null' \
        "$WORK_DIR/access.jsonl" > /dev/null
else
    test "$(grep -c '"verdict": "ok"' "$WORK_DIR/access.jsonl")" \
        -eq "$ACCESS_LINES"
fi

# The serve trace carries the cross-thread flow arrows (s → t → f).
if command -v jq >/dev/null 2>&1; then
    jq -e '.traceEvents | map(select(.ph == "s")) | length > 0' \
        "$WORK_DIR/serve_trace.json" > /dev/null
    jq -e '.traceEvents | map(select(.ph == "f" and .bp == "e"))
           | length > 0' "$WORK_DIR/serve_trace.json" > /dev/null
else
    grep -q '"ph": "s"' "$WORK_DIR/serve_trace.json"
    grep -q '"ph": "f"' "$WORK_DIR/serve_trace.json"
fi

# Multi-scorer determinism: the verdict stream must be byte-identical
# no matter how many scorer threads race over the queue.
for N in 2 4; do
    "$PELICAN_BIN" serve --model "$WORK_DIR/model.bin" --port 0 \
        --scorers "$N" > "$WORK_DIR/score_serve_$N.log" 2>&1 &
    SCORE_PID=$!
    PORT="$(port_from_log "$WORK_DIR/score_serve_$N.log" "scoring server ")"
    test -n "$PORT"
    grep -q "scorers $N" "$WORK_DIR/score_serve_$N.log"
    "$PELICAN_BIN" score --port "$PORT" --csv "$WORK_DIR/score_flows.csv" \
        --out "$WORK_DIR/serve_verdicts_$N.txt"
    cmp "$WORK_DIR/serve_verdicts_$N.txt" "$WORK_DIR/serve_verdicts.txt"
    kill -TERM "$SCORE_PID"
    wait "$SCORE_PID"
done

# Quantized inference: train emits the .quant sidecar alongside the
# model; int8 verdict labels must agree with fp32 on >= 99.5% of
# records, and `serve --quantized` must match `classify --quantized`
# byte-for-byte on the same CSV.
"$PELICAN_BIN" train --dataset nsl --csv "$WORK_DIR/flows.csv" \
    --blocks 2 --channels 8 --epochs 6 --out "$WORK_DIR/model_q.bin"
test -s "$WORK_DIR/model_q.bin.quant"
"$PELICAN_BIN" generate --dataset nsl --records 400 --seed 13 \
    --out "$WORK_DIR/quant_flows.csv"
"$PELICAN_BIN" classify --model "$WORK_DIR/model_q.bin" \
    --csv "$WORK_DIR/quant_flows.csv" --limit 1 \
    --verdicts-out "$WORK_DIR/fp32_verdicts.txt" > /dev/null
"$PELICAN_BIN" classify --model "$WORK_DIR/model_q.bin" --quantized \
    --csv "$WORK_DIR/quant_flows.csv" --limit 1 \
    --verdicts-out "$WORK_DIR/int8_verdicts.txt" > /dev/null
TOTAL="$(wc -l < "$WORK_DIR/fp32_verdicts.txt")"
test "$TOTAL" -eq 400
AGREE="$(paste -d'|' "$WORK_DIR/fp32_verdicts.txt" \
        "$WORK_DIR/int8_verdicts.txt" \
    | awk -F'|' '{split($1,a,","); split($2,b,",");
                  if (a[2] == b[2]) n++} END {print n+0}')"
test $((AGREE * 1000)) -ge $((TOTAL * 995))

"$PELICAN_BIN" serve --model "$WORK_DIR/model_q.bin" --quantized --port 0 \
    > "$WORK_DIR/quant_serve.log" 2>&1 &
QUANT_PID=$!
PORT="$(port_from_log "$WORK_DIR/quant_serve.log" "scoring server ")"
test -n "$PORT"
grep -q "engine int8" "$WORK_DIR/quant_serve.log"
"$PELICAN_BIN" score --port "$PORT" --csv "$WORK_DIR/quant_flows.csv" \
    --out "$WORK_DIR/quant_serve_verdicts.txt"
cmp "$WORK_DIR/quant_serve_verdicts.txt" "$WORK_DIR/int8_verdicts.txt"
kill -TERM "$QUANT_PID"
wait "$QUANT_PID"

# int8 engine is deterministic across scorer counts too.
"$PELICAN_BIN" serve --model "$WORK_DIR/model_q.bin" --quantized --port 0 \
    --scorers 4 > "$WORK_DIR/quant_serve_4.log" 2>&1 &
QUANT_PID=$!
PORT="$(port_from_log "$WORK_DIR/quant_serve_4.log" "scoring server ")"
test -n "$PORT"
grep -q "scorers 4" "$WORK_DIR/quant_serve_4.log"
"$PELICAN_BIN" score --port "$PORT" --csv "$WORK_DIR/quant_flows.csv" \
    --out "$WORK_DIR/quant_serve_verdicts_4.txt"
cmp "$WORK_DIR/quant_serve_verdicts_4.txt" "$WORK_DIR/int8_verdicts.txt"
kill -TERM "$QUANT_PID"
wait "$QUANT_PID"

echo "cli smoke test passed"
