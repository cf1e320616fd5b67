"""Mutation sweep of every text file that a CLI subcommand reads.

One module-scoped toy workspace (E = H = 8, one epoch per stage) is built
once.  Each case damages one input of one subcommand run in a fixed, seeded
way and runs that subcommand on it.  Every case must exit 0, or exit 2 with
one `error:` line that names the damaged file (and a line of it, when the
damage is to one line); no case may exit 1 or print a traceback, and a run
that exits 2 writes no output.  All cases run in one child process under an
address-space limit, so that a case that allocates without bound fails the
test instead of the test runner.
"""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from topicsum import cli
from topicsum.cli import main
from topicsum.synthetic import write_toy_workspace

CONFIG = """\
seed = 42
schema_path = schema.txt
vocab_path = corpus/vocab.txt
detector_train_path = corpus/detector_train.tsv
detector_valid_path = corpus/detector_valid.tsv
summarization_train_path = summ_train.tsv
summarization_valid_path = summ_valid.tsv
detector_checkpoint = detector.bin
detector_embed_size = 8
detector_hidden_size = 8
detector_epochs = 1
detector_lr = 0.01
embed_size = 8
hidden_size = 8
generator_epochs = 1
generator_lr_first = 0.01
generator_lr_rest = 0.001
beam_size = 2
max_sentences = 4
max_sentence_tokens = 8
"""
CONFIG_LINES = CONFIG.splitlines()

# the text files each subcommand run reads
READS = {
    "build-corpus": ("articles.jsonl", "schema.txt", "summ_train.tsv"),
    "train-detector": ("run.cfg", "vocab.txt", "schema.txt", "detector_train.tsv",
                       "detector_valid.tsv"),
    "train-generator": ("run.cfg", "vocab.txt", "schema.txt", "summ_train.tsv",
                        "summ_valid.tsv"),
    "generate": ("run.cfg", "vocab.txt", "schema.txt", "summ_valid.tsv"),
    "evaluate": ("generated.txt", "gold.txt"),
}
# the config key that names each file a run does not take on its command line
CONFIG_KEYS = {"vocab.txt": "vocab_path", "schema.txt": "schema_path",
               "detector_train.tsv": "detector_train_path",
               "detector_valid.tsv": "detector_valid_path",
               "summ_train.tsv": "summarization_train_path",
               "summ_valid.tsv": "summarization_valid_path"}
TABBED = {"detector_train.tsv", "detector_valid.tsv", "summ_train.tsv", "summ_valid.tsv"}
NO_DIGITS = {"schema.txt"}
DIGITS = {"digits_x": "x", "digits_-1": "-1", "digits_huge": "99999999999"}
LINE_KINDS = ("add_field", "cut", "duplicate_line", "empty_line")


def kinds_for(name):
    """Each kind of damage to `name`, at a seeded line."""
    if name == "run.cfg":
        return ["empty"]
    kinds = ["empty", *LINE_KINDS]
    if name in TABBED:
        kinds += ["drop_field", "tabs_to_spaces"]
    if name not in NO_DIGITS:
        kinds += list(DIGITS)
    return kinds


def config_line_kinds():
    """Each kind of damage to each line of the config, one key at a time.
    A huge epoch count asks for a long run, so that one is left out."""
    for lineno, line in enumerate(CONFIG_LINES, start=1):
        yield from ((kind, lineno) for kind in LINE_KINDS)
        if re.search(r"\d", line):
            yield from ((kind, lineno) for kind in DIGITS
                        if not (kind == "digits_huge" and "epochs" in line))


CASES = [(command, name, kind, None) for command, names in READS.items()
         for name in names for kind in kinds_for(name)]
CASES += [(command, "run.cfg", kind, lineno) for command in READS if "run.cfg" in READS[command]
          for kind, lineno in config_line_kinds()]


def case_id(case):
    command, name, kind, lineno = case
    return f"{command}-{name}-{kind}" + (f"@{lineno}" if lineno else "")


def mutate(text, case):
    """The damaged text, and the 1-based line whose content it changed
    (None when the damage is to the whole file, the line count or a line
    that is no longer there); the line is `case`'s own or a seeded choice."""
    _, _, kind, lineno = case
    if kind == "empty":
        return "", None
    if kind == "tabs_to_spaces":
        return text.replace("\t", " "), None
    lines = text.splitlines()
    rng = random.Random(case_id(case))
    needs = "\t" if kind == "drop_field" else r"\d" if kind in DIGITS else ""
    index = lineno - 1 if lineno else rng.choice(
        [i for i, line in enumerate(lines) if re.search(needs, line)])
    line = lines[index]
    if kind == "cut":
        return "\n".join(lines[:index] + [line[:len(line) // 2]]), None
    if kind == "duplicate_line":
        return "\n".join(lines[:index + 1] + lines[index:]) + "\n", None
    if kind == "empty_line":
        return "\n".join(lines[:index] + [""] + lines[index + 1:]) + "\n", None
    if kind == "add_field":
        lines[index] = line + "\textra"
    elif kind == "drop_field":
        fields = line.split("\t")
        del fields[rng.randrange(len(fields))]
        lines[index] = "\t".join(fields)
    else:
        lines[index] = re.sub(r"\d+", DIGITS[kind], line)
    return "\n".join(lines) + "\n", index + 1


def build_workspace(root):
    paths = write_toy_workspace(root, n_articles=30, n_examples=10, seed=0)
    (root / "run.cfg").write_text(CONFIG, encoding="utf-8")
    config = str(root / "run.cfg")
    for argv in (["build-corpus", "--articles", str(paths["articles"]),
                  "--schema", str(paths["schema"]), "--summarization", str(paths["summ_train"]),
                  "--out", str(root / "corpus"), "--vocab-cap", "500"],
                 ["train", "--stage", "detector", "--config", config,
                  "--out", str(root / "detector.bin")],
                 ["train", "--stage", "generator", "--config", config,
                  "--out", str(root / "generator.bin")],
                 ["generate", "--config", config, "--generator-ckpt", str(root / "generator.bin"),
                  "--input", str(paths["summ_valid"]), "--out", str(root / "generated.txt")]):
        assert main(argv) == 0
    gold = [line.split("\t")[2].replace(" ⟨s⟩ ", " ")
            for line in paths["summ_valid"].read_text("utf-8").splitlines()]
    (root / "gold.txt").write_text("\n".join(gold) + "\n", encoding="utf-8")


def source(root, name):
    return root / "corpus" / name if name in ("vocab.txt", "detector_train.tsv",
                                               "detector_valid.tsv") else root / name


def run_spec(root, case):
    """The argv, the output paths and the damaged file's path of `case`."""
    command, name, _, _ = case
    label = case_id(case)
    work = root / "cases" / label
    work.mkdir(parents=True)
    damaged = root / f"{label}.cfg" if name == "run.cfg" else work / name
    text, line = mutate(source(root, name).read_text("utf-8"), case)
    assert text != source(root, name).read_text("utf-8"), label
    damaged.write_text(text, encoding="utf-8")
    config = root / "run.cfg"
    on_command_line = command in ("build-corpus", "evaluate") or (
        command, name) == ("generate", "summ_valid.tsv")
    if name == "run.cfg":
        config = damaged
    elif not on_command_line:
        # the config names the damaged file in place of the good one, on the same line
        config = root / f"{label}.cfg"
        config.write_text(re.sub(rf"(?m)^{CONFIG_KEYS[name]} = .*$",
                                 f"{CONFIG_KEYS[name]} = {damaged}", CONFIG), encoding="utf-8")

    def given(other):
        return str(damaged if other == name else source(root, other))

    out = work / "out"
    outputs = [out]
    if command == "build-corpus":
        argv = ["build-corpus", "--articles", given("articles.jsonl"),
                "--schema", given("schema.txt"), "--summarization", given("summ_train.tsv"),
                "--out", str(out), "--vocab-cap", "500"]
    elif command.startswith("train"):
        argv = ["train", "--stage", command.split("-")[1], "--config", str(config),
                "--out", str(out)]
        outputs.append(work / "out.log")
    elif command == "generate":
        argv = ["generate", "--config", str(config),
                "--generator-ckpt", str(root / "generator.bin"),
                "--input", given("summ_valid.tsv"), "--out", str(out)]
    else:
        argv = ["evaluate", "--generated", given("generated.txt"), "--gold", given("gold.txt"),
                "--out", str(out)]
    return {"id": label, "argv": argv, "outputs": [str(p) for p in outputs],
            "damaged": str(damaged), "line": line}


CHILD = """\
import contextlib, io, json, resource, sys, traceback
from pathlib import Path
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from topicsum.cli import main
results = {}
for case in json.loads(Path(sys.argv[1]).read_text(encoding="utf-8")):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = main(case["argv"])
        except SystemExit as exc:
            rc = exc.code
        except BaseException:
            traceback.print_exc()
            rc = None
    results[case["id"]] = {**case, "rc": rc, "stderr": err.getvalue(),
                           "written": [p for p in case["outputs"] if Path(p).exists()]}
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    build_workspace(root)
    specs = root / "cases.json"
    specs.write_text(json.dumps([run_spec(root, case) for case in CASES]), encoding="utf-8")
    package_root = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(specs)], capture_output=True, text=True,
        timeout=300, env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [package_root, os.environ.get("PYTHONPATH", "")])})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_exits_zero_or_two_naming_the_damaged_file(sweep, case):
    result = sweep[case_id(case)]
    err = result["stderr"]
    assert result["rc"] in (0, 2) and "Traceback" not in err, err
    if result["rc"] == 2:
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, err
        named = re.escape(result["damaged"]) + (r":\d+:" if result["line"] else "")
        assert re.search(named, errors[0]), errors[0]
        assert not result["written"]
