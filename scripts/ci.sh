#!/usr/bin/env bash
# Tier-1 CI gate: formatting, release build, the default-member test suites
# (the facade plus the profiles, blocking, dataflow, looseschema,
# metablocking, matching, clustering, core and serve crates, whose tests pin
# the JSON-lines loader, the purging/filtering semantics, the spill codec,
# the dataflow-vs-sequential clustering, cross-backend and serve-vs-batch
# equivalence; `cargo test --workspace` runs the rest),
# the benchmark package's own smoke self-test, clippy and rustdoc with
# warnings denied, end-to-end pipeline smoke, a CLI backend-matrix smoke,
# the supervised-scorer train/run/export smoke, the out-of-core smoke, the
# online-serve smoke and the JSON-lines backend matrix (under every
# set-similarity measure). Run from the repo root: scripts/ci.sh
#
# Performance is measured by one harness only: `bash benchmark/run.sh`
# (see benchmark/README.md).
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

# End-to-end pipeline smoke: every execution backend (2 workers) must match
# the sequential pipeline bit for bit (clusters and evaluation).
echo "==> cargo run --release -p sparker-bench --bin smoke_pipeline"
cargo run -q --release -p sparker-bench --bin smoke_pipeline

# CLI backend-matrix smoke: the sparker binary must report identical result
# counts on all three backends.
echo "==> sparker --demo --backend {sequential,dataflow,fused}"
counts=""
for backend in sequential dataflow fused; do
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

# Supervised-scorer smoke: train a logistic edge-scoring model on the
# dirty_1k preset through the CLI, run the pipeline with it on two
# backends (result counts must match bit for bit), and diff a
# --weight-filter TSV export against the checked-in golden file.
echo "==> sparker train --preset dirty_1k + supervised run on two backends"
model_json="$(mktemp --suffix .json)"
cargo run -q --release --bin sparker -- train --preset dirty_1k --out "${model_json}" > /dev/null
sup_seq="$(cargo run -q --release --bin sparker -- --demo --backend sequential \
  --edge-scorer "supervised:${model_json}" | grep '^result counts:')"
sup_fused="$(cargo run -q --release --bin sparker -- --demo --backend fused --workers 2 \
  --edge-scorer "supervised:${model_json}" | grep '^result counts:')"
echo "    sequential: ${sup_seq#result counts: }"
echo "    fused:      ${sup_fused#result counts: }"
if [ "${sup_seq}" != "${sup_fused}" ]; then
  echo "supervised backends disagree: '${sup_fused}' != '${sup_seq}'" >&2
  exit 1
fi
rm -f "${model_json}"

echo "==> sparker --export-edges --weight-filter vs tests/golden"
export_tsv="$(mktemp --suffix .tsv)"
cargo run -q --release --bin sparker -- --preset dirty_1k --backend fused --workers 2 \
  --edge-scorer js --export-edges "${export_tsv}" --weight-filter "w >= 0.75" > /dev/null
diff -u tests/golden/dirty_1k_js_edges_w_ge_0.75.tsv "${export_tsv}"
echo "    export matches golden ($(wc -l < "${export_tsv}") lines)"
rm -f "${export_tsv}"

# Fused-execution smoke: on the 10k scaling preset the fused backend
# (prune->score overlapped through the bounded morsel channel) must report
# result counts and matcher cascade counters identical to the sequential
# reference run (the `matcher:` line minus its timing), and export the same
# weighted edges byte for byte — the fused run keeps no retained edges, so
# the export re-derives them from the pruning plan.
echo "==> sparker --preset dirty_10k: sequential vs fused"
seq_tsv="$(mktemp --suffix .tsv)"
fused_tsv="$(mktemp --suffix .tsv)"
seq_out="$(cargo run -q --release --bin sparker -- --preset dirty_10k --backend sequential \
  --export-edges "${seq_tsv}")"
fused_out="$(cargo run -q --release --bin sparker -- --preset dirty_10k --backend fused --workers 4 \
  --export-edges "${fused_tsv}")"
for line in '^result counts:' '^matcher:'; do
  seq_line="$(printf '%s\n' "${seq_out}" | grep "${line}" | sed 's/ ([^)]*)//')"
  fused_line="$(printf '%s\n' "${fused_out}" | grep "${line}" | sed 's/ ([^)]*)//')"
  echo "    sequential: ${seq_line}"
  echo "    fused:      ${fused_line}"
  if [ -z "${seq_line}" ] || [ "${seq_line}" != "${fused_line}" ]; then
    echo "fused run diverged from sequential: '${fused_line}' != '${seq_line}'" >&2
    exit 1
  fi
done
cmp "${seq_tsv}" "${fused_tsv}"
echo "    exported edges match ($(wc -l < "${fused_tsv}") lines)"
rm -f "${seq_tsv}" "${fused_tsv}"
printf '%s\n' "${fused_out}" | grep '^fused:' | sed 's/^/    /'

# Out-of-core smoke: the dirty_100k scaling preset under a hard 8 MiB
# budget must report result counts identical to the unbudgeted in-RAM run,
# on the fused backend (whose token blocking is a shuffle-free CSR build
# that counts blocks out in budget-sized key ranges) and on the dataflow
# backend, whose blocking and filtering shuffles must actually spill.
echo "==> sparker --preset dirty_100k: in-RAM vs --mem-budget-mb 8"
inram="$(cargo run -q --release --bin sparker -- --preset dirty_100k --backend fused --workers 2)"
inram_counts="$(printf '%s\n' "${inram}" | grep '^result counts:')"
echo "    in-RAM:            ${inram_counts#result counts: }"
for backend in fused dataflow; do
  budgeted="$(cargo run -q --release --bin sparker -- --preset dirty_100k --backend "${backend}" \
    --workers 2 --mem-budget-mb 8)"
  budget_counts="$(printf '%s\n' "${budgeted}" | grep '^result counts:')"
  memory_line="$(printf '%s\n' "${budgeted}" | grep '^memory:')"
  echo "    budgeted ${backend}: ${budget_counts#result counts: }"
  echo "    ${memory_line}"
  if [ "${inram_counts}" != "${budget_counts}" ]; then
    echo "budgeted ${backend} run diverged from in-RAM: '${budget_counts}' != '${inram_counts}'" >&2
    exit 1
  fi
  if [ "${backend}" = dataflow ] && [[ "${memory_line}" == *"spill_batches=0"* ]]; then
    echo "budgeted 100k dataflow run never spilled: ${memory_line}" >&2
    exit 1
  fi
done

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

# JSON-lines backend matrix: the same JSONL input (the CLI arguments given)
# on every backend (parallel loader and token pass on fused, the paper's
# shuffles on dataflow, one thread on sequential) must give identical
# result counts, matcher cascade counters and entity CSV bytes — and the
# fused run, which blocks, purges and filters on CSR, must shuffle nothing.
jsonl_matrix() {
  local ref_csv="" ref_lines="" backend csv out lines
  for backend in sequential dataflow fused; do
    csv="$(mktemp --suffix .csv)"
    out="$(cargo run -q --release --bin sparker -- "$@" \
      --backend "${backend}" --workers 2 --output "${csv}")"
    lines="$(printf '%s\n' "${out}" | grep -E '^(result counts|matcher):' | sed 's/ ([^)]*)//')"
    echo "    ${backend}: $(printf '%s\n' "${lines}" | head -1) ($(wc -l < "${csv}") CSV lines)"
    if [ "${backend}" = fused ] && ! printf '%s\n' "${out}" | grep -q ' 0 shuffled records$'; then
      echo "fused run shuffled: $(printf '%s\n' "${out}" | grep 'shuffled records')" >&2
      exit 1
    fi
    if [ -z "${ref_csv}" ]; then
      ref_csv="${csv}"
      ref_lines="${lines}"
    else
      if [ "${lines}" != "${ref_lines}" ]; then
        echo "backend ${backend} disagrees: '${lines}' != '${ref_lines}'" >&2
        exit 1
      fi
      cmp "${ref_csv}" "${csv}"
      rm -f "${csv}"
    fi
  done
  rm -f "${ref_csv}"
}

echo "==> sparker --source-a <jsonl> --output: sequential vs dataflow vs fused"
jsonl_matrix --source-a "${serve_jsonl}"

# The same matrix on the node pass's other kernels: the default CBS above
# takes the count-only walk and the degree-only WEP pass A; JS weighs its
# pass A on the count-only walk; ARCS accumulates the f64 sums.
for scorer in js arcs; do
  echo "==> sparker --source-a <jsonl> --edge-scorer ${scorer}: sequential vs dataflow vs fused"
  jsonl_matrix --source-a "${serve_jsonl}" --edge-scorer "${scorer}"
done

# The same profiles split into two sources: a clean-clean task, whose
# blocks carry a source-0 prefix through the fused backend's CSR clean.
echo "==> sparker --source-a <half> --source-b <half> (clean-clean): sequential vs dataflow vs fused"
half_a="$(mktemp --suffix .jsonl)"
half_b="$(mktemp --suffix .jsonl)"
measure_conf="$(mktemp --suffix .conf)"
trap 'rm -f "${serve_jsonl}" "${half_a}" "${half_b}" "${measure_conf}"' EXIT
total_lines="$(wc -l < "${serve_jsonl}")"
head -n "$((total_lines / 2))" "${serve_jsonl}" > "${half_a}"
tail -n "+$((total_lines / 2 + 1))" "${serve_jsonl}" > "${half_b}"
jsonl_matrix --source-a "${half_a}" --source-b "${half_b}"

# The same matrix under the other set measures: the matcher cascade reads
# its bounds from a size-indexed table kept per (measure, threshold).
# Jaccard, the default, ran above.
for measure in dice overlap cosine; do
  printf 'matcher.measure = %s\n' "${measure}" > "${measure_conf}"
  echo "==> sparker --source-a <jsonl> --config <matcher.measure = ${measure}>: sequential vs dataflow vs fused"
  jsonl_matrix --source-a "${serve_jsonl}" --config "${measure_conf}"
done

echo "CI OK"
