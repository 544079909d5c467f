#!/usr/bin/env bash
# Tier-1 CI gate: formatting, release build, the default-member test suites
# (the facade plus the metablocking, matching and core crates, whose tests
# pin cross-backend equivalence; `cargo test --workspace` runs the rest),
# the benchmark package's own smoke self-test, clippy and rustdoc with
# warnings denied, bench smoke, end-to-end pipeline smoke, a CLI
# backend-matrix smoke, the supervised-scorer train/run/export smoke and
# the online-serve smoke. Run from the repo root: scripts/ci.sh
#
# Scale tiers (environment-gated):
#   BENCH_SMOKE=1       Bench binaries run each body once with no warmup
#                       and no JSON dump — only this tier runs here in CI.
#                       Unset (scripts/bench.sh) they run full Criterion
#                       sampling and write BENCH_<name>.json.
#   SPARKER_SCALE_1M    Gates the big scale tiers: set non-empty to add
#                       skewed_1m (~10^6 profiles; minutes per sample,
#                       RAM-heavy) to the scaling bench and the dirty_100k
#                       warm-load tier to the serve bench. CI never sets
#                       it; scripts/bench.sh inherits it from the caller.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# benchmark/ is a package of its own that path-depends on the crates: its
# smoke self-test fails here, not in the benchmark gate, when a public item
# it calls changes.
echo "==> cargo test --manifest-path benchmark/Cargo.toml"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# Smoke-execute every bench body (1 sample, no warmup, no JSON dump) so
# bench-only code paths can't rot between full scripts/bench.sh runs.
for bench in blocking dataflow metablocking pipeline scaling serve weights; do
  echo "==> BENCH_SMOKE=1 cargo bench -p sparker-bench --bench ${bench}"
  BENCH_SMOKE=1 cargo bench -p sparker-bench --bench "${bench}" > /dev/null
done

# End-to-end pipeline smoke: every execution backend (2 workers) must match
# the sequential pipeline bit for bit (clusters and evaluation).
echo "==> cargo run --release -p sparker-bench --bin smoke_pipeline"
cargo run -q --release -p sparker-bench --bin smoke_pipeline

# CLI backend-matrix smoke: the sparker binary must report identical result
# counts on all four backends.
echo "==> sparker --demo --backend {sequential,dataflow,pool,fused}"
counts=""
for backend in sequential dataflow pool fused; do
  out="$(cargo run -q --release --bin sparker -- --demo --backend "${backend}" --workers 2)"
  line="$(printf '%s\n' "${out}" | grep '^result counts:')"
  echo "    ${backend}: ${line#result counts: }"
  if [ -z "${counts}" ]; then
    counts="${line}"
  elif [ "${counts}" != "${line}" ]; then
    echo "backend ${backend} disagrees: '${line}' != '${counts}'" >&2
    exit 1
  fi
done

# Matcher-equivalence smoke: the filter–verify cascade (default) and the
# naive score-everything matcher (SPARKER_NAIVE_MATCHER=1) must report
# identical result counts through the CLI.
echo "==> sparker --demo: cascade vs SPARKER_NAIVE_MATCHER=1"
cascade_line="$(cargo run -q --release --bin sparker -- --demo --backend pool --workers 2 \
  | grep '^result counts:')"
naive_line="$(SPARKER_NAIVE_MATCHER=1 cargo run -q --release --bin sparker -- --demo --backend pool --workers 2 \
  | grep '^result counts:')"
echo "    cascade: ${cascade_line#result counts: }"
echo "    naive:   ${naive_line#result counts: }"
if [ "${cascade_line}" != "${naive_line}" ]; then
  echo "cascade and naive matcher disagree: '${cascade_line}' != '${naive_line}'" >&2
  exit 1
fi

# Supervised-scorer smoke: train a logistic edge-scoring model on the
# dirty_1k preset through the CLI, run the pipeline with it on two
# backends (result counts must match bit for bit), and diff a
# --weight-filter TSV export against the checked-in golden file.
echo "==> sparker train --preset dirty_1k + supervised run on two backends"
model_json="$(mktemp --suffix .json)"
cargo run -q --release --bin sparker -- train --preset dirty_1k --out "${model_json}" > /dev/null
sup_seq="$(cargo run -q --release --bin sparker -- --demo --backend sequential \
  --edge-scorer "supervised:${model_json}" | grep '^result counts:')"
sup_pool="$(cargo run -q --release --bin sparker -- --demo --backend pool --workers 2 \
  --edge-scorer "supervised:${model_json}" | grep '^result counts:')"
echo "    sequential: ${sup_seq#result counts: }"
echo "    pool:       ${sup_pool#result counts: }"
if [ "${sup_seq}" != "${sup_pool}" ]; then
  echo "supervised backends disagree: '${sup_pool}' != '${sup_seq}'" >&2
  exit 1
fi
rm -f "${model_json}"

echo "==> sparker --export-edges --weight-filter vs tests/golden"
export_tsv="$(mktemp --suffix .tsv)"
cargo run -q --release --bin sparker -- --preset dirty_1k --backend pool --workers 2 \
  --edge-scorer js --export-edges "${export_tsv}" --weight-filter "w >= 0.75" > /dev/null
diff -u tests/golden/dirty_1k_js_edges_w_ge_0.75.tsv "${export_tsv}"
echo "    export matches golden ($(wc -l < "${export_tsv}") lines)"
rm -f "${export_tsv}"

# Fused-execution smoke: on the 10k scaling preset the fused backend
# (prune->score overlapped through the bounded morsel channel) must report
# result counts identical to the staged pool run.
echo "==> sparker --preset dirty_10k: staged pool vs --fused"
staged_counts="$(cargo run -q --release --bin sparker -- --preset dirty_10k --backend pool --workers 4 \
  | grep '^result counts:')"
fused_out="$(cargo run -q --release --bin sparker -- --preset dirty_10k --fused --workers 4)"
fused_counts="$(printf '%s\n' "${fused_out}" | grep '^result counts:')"
echo "    staged: ${staged_counts#result counts: }"
echo "    fused:  ${fused_counts#result counts: }"
printf '%s\n' "${fused_out}" | grep '^fused:' | sed 's/^/    /'
if [ "${staged_counts}" != "${fused_counts}" ]; then
  echo "fused run diverged from staged pool: '${fused_counts}' != '${staged_counts}'" >&2
  exit 1
fi

# Out-of-core smoke: the dirty_100k scaling preset under a hard 8 MiB
# budget must actually spill and still report result counts identical to
# the unbudgeted in-RAM run.
echo "==> sparker --preset dirty_100k: in-RAM vs --mem-budget-mb 8"
inram="$(cargo run -q --release --bin sparker -- --preset dirty_100k --backend pool --workers 2)"
budgeted="$(cargo run -q --release --bin sparker -- --preset dirty_100k --backend pool --workers 2 --mem-budget-mb 8)"
inram_counts="$(printf '%s\n' "${inram}" | grep '^result counts:')"
budget_counts="$(printf '%s\n' "${budgeted}" | grep '^result counts:')"
memory_line="$(printf '%s\n' "${budgeted}" | grep '^memory:')"
echo "    in-RAM:   ${inram_counts#result counts: }"
echo "    budgeted: ${budget_counts#result counts: }"
echo "    ${memory_line}"
if [ "${inram_counts}" != "${budget_counts}" ]; then
  echo "budgeted run diverged from in-RAM: '${budget_counts}' != '${inram_counts}'" >&2
  exit 1
fi
case "${memory_line}" in
  *"spill_batches=0"*)
    echo "budgeted 100k run never spilled: ${memory_line}" >&2
    exit 1
    ;;
esac

# Online-serve smoke: boot the incremental resolver behind its HTTP API,
# insert a 1k slice of dirty_10k over the wire from concurrent clients,
# and diff the service's /stats counts against a cold batch CLI run over
# the same profiles (written to a JSONL file by the smoke binary).
echo "==> smoke_serve: online service vs batch CLI on 1k profiles"
serve_jsonl="$(mktemp --suffix .jsonl)"
trap 'rm -f "${serve_jsonl}"' EXIT
serve_out="$(cargo run -q --release -p sparker-bench --bin smoke_serve -- "${serve_jsonl}" 1000)"
serve_counts="$(printf '%s\n' "${serve_out}" | grep '^result counts:')"
batch_counts="$(cargo run -q --release --bin sparker -- --source-a "${serve_jsonl}" \
  | grep '^result counts:')"
echo "    serve: ${serve_counts#result counts: }"
echo "    batch: ${batch_counts#result counts: }"
if [ "${serve_counts}" != "${batch_counts}" ]; then
  echo "online service diverged from batch CLI: '${serve_counts}' != '${batch_counts}'" >&2
  exit 1
fi

echo "CI OK"
