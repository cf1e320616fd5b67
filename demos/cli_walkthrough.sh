#!/usr/bin/env bash
# Walk the four CLI subcommands over a generated toy workspace:
# build-corpus -> train (detector) -> train (generator) -> generate -> evaluate.
# Requires the package to be installed (pip install -e .).
set -euo pipefail

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
echo "workspace: $workdir"

python3 - "$workdir" <<'PY'
import sys
from topicsum.synthetic import write_toy_workspace
paths = write_toy_workspace(sys.argv[1], n_articles=120, n_examples=10, seed=0)
for name, path in sorted(paths.items()):
    print(f"  {name}: {path.name}")
PY

cd "$workdir"

cat > run.cfg <<'CFG'
seed = 42
schema_path = schema.txt
vocab_path = corpus/vocab.txt
detector_train_path = corpus/detector_train.tsv
detector_valid_path = corpus/detector_valid.tsv
summarization_train_path = summ_train.tsv
summarization_valid_path = summ_valid.tsv
detector_checkpoint = detector.bin
detector_embed_size = 32
detector_hidden_size = 32
detector_epochs = 4
detector_lr = 0.01
embed_size = 48
hidden_size = 64
generator_epochs = 40
generator_lr_first = 0.002
generator_lr_rest = 0.002
CFG

# generation reads its models' sizes from their checkpoints, so its config
# holds only the files it reads and the decoding settings
cat > generate.cfg <<'CFG'
vocab_path = corpus/vocab.txt
schema_path = schema.txt
detector_checkpoint = detector.bin
beam_size = 3
max_sentences = 6
max_sentence_tokens = 10
CFG

echo
echo "== build-corpus: vocabulary, label statistics, detector splits =="
python3 -m topicsum.cli build-corpus --articles articles.jsonl --schema schema.txt \
    --out corpus --vocab-cap 500 --summarization summ_train.tsv

echo
echo "== train the topic detector =="
python3 -m topicsum.cli train --stage detector --config run.cfg --out detector.bin

echo
echo "== train the abstract generator (topics assigned by the detector) =="
python3 -m topicsum.cli train --stage generator --config run.cfg --out generator.bin

echo
echo "== generate abstracts for the held-out records (beam 3, soft mixing) =="
# the topics come from the config's detector_checkpoint, as in training
python3 -m topicsum.cli generate --config generate.cfg \
    --generator-ckpt generator.bin --input summ_valid.tsv --out generated.txt
cat generated.txt

# gold abstracts: third tab field of the records, sentence markers kept
python3 - <<'PY'
lines = []
for line in open("summ_valid.tsv", encoding="utf-8"):
    lines.append(line.rstrip("\n").split("\t")[2])
with open("gold.txt", "w", encoding="utf-8") as handle:
    handle.write("\n".join(lines) + "\n")
PY

echo
echo "== evaluate against the gold abstracts =="
python3 -m topicsum.cli evaluate --generated generated.txt --gold gold.txt --out report.tsv
cat report.tsv
