#!/usr/bin/env bash
# Tier-1 CI gate: formatting, release build, the default-member test suites
# (the facade plus the profiles, blocking, dataflow, looseschema,
# metablocking, matching, clustering, core and serve crates, whose tests pin
# the JSON-lines loader, the purging/filtering semantics, the spill codec,
# the dataflow-vs-sequential clustering, cross-backend and serve-vs-batch
# equivalence; `cargo test --workspace` runs the rest),
# the benchmark package's own smoke self-test, clippy and rustdoc with
# warnings denied, end-to-end pipeline smoke, a CLI backend-matrix smoke,
# the supervised-scorer train/run/export smoke, the fused-vs-sequential
# smokes on dirty_10k (scaling and dense default configuration), the
# out-of-core smoke, the online-serve smoke and the JSON-lines backend
# matrix (under every set-similarity measure, and under the settings that
# make the fused run keep its attribute text). Run from the repo root:
# scripts/ci.sh
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

# Dense fused smoke: the same preset under the default configuration
# (~11.7 M candidates, so the pruning plan's 16 Ki-pair cap, not the worker
# count, sets the morsels) must match the sequential run — result counts,
# matcher counters and entity CSV bytes — and cut more morsels than the
# 32 per worker it would without the cap. An empty configuration file is
# PipelineConfig::default() (pinned by the config tests).
echo "==> sparker --preset dirty_10k --config <default>: sequential vs fused"
default_conf="$(mktemp --suffix .conf)"
seq_csv="$(mktemp --suffix .csv)"
fused_csv="$(mktemp --suffix .csv)"
printf '# PipelineConfig::default()\n' > "${default_conf}"
seq_out="$(cargo run -q --release --bin sparker -- --preset dirty_10k --config "${default_conf}" \
  --backend sequential --output "${seq_csv}")"
fused_out="$(cargo run -q --release --bin sparker -- --preset dirty_10k --config "${default_conf}" \
  --backend fused --workers 4 --output "${fused_csv}")"
for line in '^result counts:' '^matcher:'; do
  seq_line="$(printf '%s\n' "${seq_out}" | grep "${line}" | sed 's/ ([^)]*)//')"
  fused_line="$(printf '%s\n' "${fused_out}" | grep "${line}" | sed 's/ ([^)]*)//')"
  echo "    sequential: ${seq_line}"
  echo "    fused:      ${fused_line}"
  if [ -z "${seq_line}" ] || [ "${seq_line}" != "${fused_line}" ]; then
    echo "dense fused run diverged from sequential: '${fused_line}' != '${seq_line}'" >&2
    exit 1
  fi
done
cmp "${seq_csv}" "${fused_csv}"
# The naive oracle's node pass, shown so its cost is in every log.
echo "    sequential $(printf '%s\n' "${seq_out}" | grep '^prune_candidates')"
fused_line="$(printf '%s\n' "${fused_out}" | grep '^fused:')"
echo "    ${fused_line}"
morsels="$(printf '%s\n' "${fused_line}" | sed -E 's/^fused: ([0-9]+) morsels.*/\1/')"
if [ "${morsels}" -le 128 ]; then
  echo "dense fused run cut ${morsels} morsels; the pair cap should cut more than 128" >&2
  exit 1
fi
rm -f "${default_conf}" "${seq_csv}" "${fused_csv}"

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
# insert a 2k slice of dirty_10k over the wire from concurrent clients
# (each request one maintenance pass), and diff the service's /stats
# counts against a cold batch CLI run over the same profiles (written to a
# JSONL file by the smoke binary).
echo "==> smoke_serve: online service vs batch CLI on 2k profiles"
serve_jsonl="$(mktemp --suffix .jsonl)"
trap 'rm -f "${serve_jsonl}"' EXIT
cargo build -q --release -p sparker-bench --bin smoke_serve
serve_started_ns="$(date +%s%N)"
serve_out="$(cargo run -q --release -p sparker-bench --bin smoke_serve -- "${serve_jsonl}" 2000)"
echo "    smoke_serve wall: $(( ($(date +%s%N) - serve_started_ns) / 1000000 )) ms"
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
# result counts, matcher cascade counters, evaluation lines and entity CSV
# bytes — and the fused run, which blocks, purges and filters on CSR, must
# shuffle nothing. The fused run's load decision (`text:` — dropped at
# load when nothing reads the attribute text, kept otherwise) and its
# `memory:` line are printed.
jsonl_matrix() {
  local ref_csv="" ref_lines="" backend csv out lines
  for backend in sequential dataflow fused; do
    csv="$(mktemp --suffix .csv)"
    out="$(cargo run -q --release --bin sparker -- "$@" \
      --backend "${backend}" --workers 2 --output "${csv}")"
    lines="$(printf '%s\n' "${out}" \
      | grep -E '^(result counts|matcher|lost ground-truth pairs after blocking):|^  (blocking|matching|clustering) ' \
      | sed 's/ ([^)]*)//')"
    echo "    ${backend}: $(printf '%s\n' "${lines}" | head -1) ($(wc -l < "${csv}") CSV lines)"
    if [ "${backend}" = fused ]; then
      printf '%s\n' "${out}" | grep -E '^(text|memory):' | sed 's/^/      /'
      # grep reads all its input (no -q): an early exit could SIGPIPE
      # printf and fail the pipeline under pipefail.
      if ! printf '%s\n' "${out}" | grep ' 0 shuffled records$' > /dev/null; then
        echo "fused run shuffled: $(printf '%s\n' "${out}" | grep 'shuffled records')" >&2
        exit 1
      fi
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
fused_text="$(cargo run -q --release --bin sparker -- --source-a "${serve_jsonl}" \
  --backend fused --workers 2 | grep '^text:')"
if [ "${fused_text}" != "text: dropped at load (tokens interned while parsing)" ]; then
  echo "the default fused JSONL run kept its text: ${fused_text}" >&2
  exit 1
fi

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

# The same matrix under settings that read attribute text, so the fused
# column keeps it (`text: kept (…)`): loose-schema blocking, entropy
# weighting and a string measure.
for setting in 'loose_schema = on' 'mb.entropy = true' 'matcher.measure = levenshtein'; do
  printf '%s\n' "${setting}" > "${measure_conf}"
  echo "==> sparker --source-a <jsonl> --config <${setting}>: sequential vs dataflow vs fused"
  jsonl_matrix --source-a "${serve_jsonl}" --config "${measure_conf}"
done

# And a ground-truth run with the lost-pair drill-down, which reads the
# shared tokens of every lost pair: the truth pairs up consecutive records
# of the serve slice.
echo "==> sparker --source-a <jsonl> --ground-truth <pairs> --show-lost: sequential vs dataflow vs fused"
truth_csv="$(mktemp --suffix .csv)"
trap 'rm -f "${serve_jsonl}" "${half_a}" "${half_b}" "${measure_conf}" "${truth_csv}"' EXIT
{
  echo "id_a,id_b"
  head -n 200 "${serve_jsonl}" | sed -E 's/.*"id":"([^"]*)".*/\1/' | paste -d, - -
} > "${truth_csv}"
jsonl_matrix --source-a "${serve_jsonl}" --ground-truth "${truth_csv}" --show-lost

echo "==> lines of metablocking + core + blocking + matching (ROADMAP item 5)"
echo "    $(find crates/{metablocking,core,blocking,matching} -name '*.rs' | xargs cat | wc -l)"

echo "CI OK"
