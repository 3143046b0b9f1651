"""End-to-end command-line interface tests: every subcommand drives through
main(argv) in-process, checking exit codes, printed reports, produced files,
and byte-for-byte reproducibility of seeded runs."""

import textwrap

import numpy as np
import pytest

from kvlatent.checkpoint import load_checkpoint
from kvlatent.cli import main
from kvlatent.interp import load_dump
from kvlatent.tasks.countdown import read_countdown_jsonl, score_countdown
from kvlatent.tasks.graphqa import read_graph_qa_jsonl


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def corpus_file(work):
    path = work / "corpus.txt"
    assert main(["gen-data", "--task", "corpus", "--out", str(path),
                 "--bytes", "3000", "--seed", "3"]) == 0
    return path


@pytest.fixture(scope="module")
def countdown_file(work):
    path = work / "cd.jsonl"
    assert main(["gen-data", "--task", "countdown", "--out", str(path),
                 "--count", "6", "--operands", "2", "--seed", "4"]) == 0
    return path


@pytest.fixture(scope="module")
def graph_file(work):
    path = work / "gq.jsonl"
    assert main(["gen-data", "--task", "graph_qa", "--out", str(path),
                 "--count", "4", "--depth", "2", "--width", "1",
                 "--seed", "5"]) == 0
    return path


def write_config(path, body):
    path.write_text(textwrap.dedent(body))
    return str(path)


@pytest.fixture(scope="module")
def pretrain_ini(work, corpus_file):
    return write_config(work / "pre.ini", f"""\
        [run]
        mode = cache_concat_frozen_base
        task = corpus
        seed = 11
        out_dir = {work / "pre_out"}

        [model]
        n_layers = 1
        d_model = 16
        n_heads = 2
        max_positions = 64

        [schedule]
        seq_len = 16
        n_sites = 1
        n_latents = 2
        n_ahead = 2

        [optimizer]
        lr = 1e-3
        warmup_steps = 2

        [train]
        batch_size = 2
        total_steps = 4
        eval_batch = 4
        max_eval_windows = 4

        [data]
        train_path = {corpus_file}
        """)


@pytest.fixture(scope="module")
def pretrained(pretrain_ini, work):
    assert main(["pretrain", "--config", pretrain_ini]) == 0
    return work / "pre_out" / "checkpoint.bin"


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_countdown(countdown_file):
    instances = read_countdown_jsonl(countdown_file)
    assert len(instances) == 6
    for inst in instances:
        assert inst.n_operands == 2
        assert score_countdown(inst.solution, inst)


def test_gen_data_is_reproducible(work, countdown_file):
    again = work / "cd2.jsonl"
    assert main(["gen-data", "--task", "countdown", "--out", str(again),
                 "--count", "6", "--operands", "2", "--seed", "4"]) == 0
    assert again.read_bytes() == countdown_file.read_bytes()
    other_seed = work / "cd3.jsonl"
    assert main(["gen-data", "--task", "countdown", "--out", str(other_seed),
                 "--count", "6", "--operands", "2", "--seed", "5"]) == 0
    assert other_seed.read_bytes() != countdown_file.read_bytes()


def test_gen_data_graph_qa(graph_file):
    instances = read_graph_qa_jsonl(graph_file)
    assert len(instances) == 4
    assert all(len(i.steps) == 2 for i in instances)


def test_gen_data_corpus(corpus_file):
    text = corpus_file.read_text()
    assert len(text) >= 3000


def test_gen_data_unsolvable_flag(work):
    path = work / "uns.jsonl"
    assert main(["gen-data", "--task", "countdown", "--out", str(path),
                 "--count", "3", "--operands", "2", "--seed", "6",
                 "--emit-unsolvable"]) == 0
    assert all(i.solution == "" for i in read_countdown_jsonl(path))


# ---------------------------------------------------------------------------
# pretrain


def test_pretrain_runs_and_reports(pretrained, work):
    assert pretrained.exists()
    ck = load_checkpoint(pretrained)
    assert ck.system.mode.value == "cache_concat_frozen_base"
    assert ck.step == 4
    assert ck.extra["task"] == "corpus"
    assert ck.extra["schedule"]["seq_len"] == 16
    metrics = (work / "pre_out" / "metrics.csv").read_text().strip()
    lines = metrics.split("\n")
    assert lines[0].startswith("step,tokens_seen,loss")
    assert lines[-1].startswith("4,")


def test_pretrain_reproducible_checkpoint(pretrained, pretrain_ini, work,
                                          capsys):
    # identical command: byte-identical artifacts
    first = pretrained.read_bytes()
    assert main(["pretrain", "--config", pretrain_ini]) == 0
    captured = capsys.readouterr().out
    assert "mode=cache_concat_frozen_base" in captured
    assert "passes_per_step=3.0" in captured
    assert pretrained.read_bytes() == first

    # different out_dir: the extra provenance block differs but every
    # trained tensor is identical
    out2 = work / "pre_out2"
    assert main(["pretrain", "--config", pretrain_ini,
                 "--set", f"run.out_dir={out2}"]) == 0
    ck_a = load_checkpoint(pretrained)
    ck_b = load_checkpoint(out2 / "checkpoint.bin")
    for (ka, va), (_, vb) in zip(ck_a.system.base.named_tensors(),
                                 ck_b.system.base.named_tensors()):
        assert np.array_equal(va.values, vb.values), ka
    np.testing.assert_array_equal(ck_a.system.bank.embeddings.values,
                                  ck_b.system.bank.embeddings.values)
    assert (out2 / "metrics.csv").read_text() \
        == (work / "pre_out" / "metrics.csv").read_text()


def test_pretrain_set_override_applies(pretrain_ini, work, capsys):
    out3 = work / "pre_out3"
    assert main(["pretrain", "--config", pretrain_ini,
                 "--set", f"run.out_dir={out3}",
                 "--set", "train.total_steps=2"]) == 0
    assert "steps=2 " in capsys.readouterr().out
    last = (out3 / "metrics.csv").read_text().strip().split("\n")[-1]
    assert last.startswith("2,")


def test_pretrain_rejects_task_mismatch(pretrain_ini, capsys):
    assert main(["pretrain", "--config", pretrain_ini,
                 "--set", "run.task=countdown"]) == 1
    assert "error:" in capsys.readouterr().err


def test_soft_mode_pass_accounting(pretrain_ini, work, capsys):
    out4 = work / "pre_out4"
    assert main(["pretrain", "--config", pretrain_ini,
                 "--set", f"run.out_dir={out4}",
                 "--set", "run.mode=soft_embedding_unified",
                 "--set", "train.total_steps=2"]) == 0
    assert "passes_per_step=2.0" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# finetune


@pytest.fixture(scope="module")
def countdown_ini(work, countdown_file):
    return write_config(work / "ft.ini", f"""\
        [run]
        mode = cache_concat_frozen_base
        task = countdown
        seed = 12
        out_dir = {work / "ft_out"}

        [model]
        n_layers = 1
        d_model = 16
        n_heads = 2
        max_positions = 160

        [schedule]
        seq_len = 32
        n_sites = 1
        n_latents = 2
        n_ahead = 2

        [optimizer]
        lr = 1e-3
        warmup_steps = 1

        [train]
        batch_size = 3
        epochs = 1
        max_eval_windows = 2

        [data]
        train_path = {countdown_file}
        """)


@pytest.fixture(scope="module")
def finetuned(countdown_ini, work):
    assert main(["finetune", "--config", countdown_ini]) == 0
    return work / "ft_out" / "checkpoint.bin"


def test_finetune_countdown_flat(finetuned):
    assert finetuned.exists()
    ck = load_checkpoint(finetuned)
    assert ck.extra["task"] == "countdown"
    assert ck.system.bank.n_latents == 2


def test_finetune_countdown_prints_report(countdown_ini, work, capsys):
    assert main(["finetune", "--config", countdown_ini,
                 "--set", f"run.out_dir={work / 'ft_print'}"]) == 0
    out = capsys.readouterr().out
    assert "task=countdown" in out
    assert "accuracy=" in out and "parse_failures=" in out


def test_finetune_resume_from_pretrained(countdown_ini, pretrained, work,
                                         capsys):
    out = work / "ft_resume"
    assert main(["finetune", "--config", countdown_ini,
                 "--set", f"run.out_dir={out}",
                 "--resume", str(pretrained)]) == 0
    assert (out / "checkpoint.bin").exists()


def test_finetune_resume_rejects_mode_mismatch(countdown_ini, pretrained,
                                               work, capsys):
    assert main(["finetune", "--config", countdown_ini,
                 "--set", "run.mode=embedding_cofinetuned",
                 "--resume", str(pretrained)]) == 1
    assert "mode" in capsys.readouterr().err


def test_finetune_resume_rejects_bank_mismatch(countdown_ini, pretrained,
                                               work, capsys):
    assert main(["finetune", "--config", countdown_ini,
                 "--set", "schedule.n_latents=4",
                 "--resume", str(pretrained)]) == 1
    assert "latent" in capsys.readouterr().err


def test_finetune_countdown_blocks_curriculum_by_default(countdown_ini,
                                                         capsys):
    code = main(["finetune", "--config", countdown_ini,
                 "--set", "curriculum.enabled=true",
                 "--set", "curriculum.n_stages=1",
                 "--set", "curriculum.latents_per_step=2"])
    assert code == 1
    assert "allow-curriculum" in capsys.readouterr().err


@pytest.fixture(scope="module")
def graph_ini(work, graph_file):
    return write_config(work / "gq.ini", f"""\
        [run]
        mode = embedding_cofinetuned
        task = graph_qa
        seed = 13
        out_dir = {work / "gq_out"}

        [model]
        n_layers = 1
        d_model = 16
        n_heads = 2
        max_positions = 256

        [schedule]
        seq_len = 32
        n_sites = 1
        n_latents = 4
        n_ahead = 2

        [optimizer]
        lr = 1e-3
        warmup_steps = 1

        [train]
        batch_size = 2
        max_eval_windows = 2

        [curriculum]
        enabled = true
        n_stages = 2
        latents_per_step = 2

        [data]
        train_path = {graph_file}
        """)


def test_finetune_graph_qa_curriculum(graph_ini, work, capsys):
    assert main(["finetune", "--config", graph_ini]) == 0
    out = capsys.readouterr().out
    assert "stage=1 n_latents=2" in out
    assert "stage=2 n_latents=4" in out
    assert "task=graph_qa" in out
    assert (work / "gq_out" / "checkpoint.bin").exists()


def test_finetune_graph_qa_requires_curriculum(graph_ini, capsys):
    assert main(["finetune", "--config", graph_ini,
                 "--set", "curriculum.enabled=false"]) == 1
    assert "curriculum" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval


def test_eval_countdown_checkpoint(finetuned, countdown_file, capsys):
    assert main(["eval", "--checkpoint", str(finetuned),
                 "--data", str(countdown_file), "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert "task=countdown n=2 accuracy=" in out


def test_eval_corpus_checkpoint(pretrained, corpus_file, capsys):
    assert main(["eval", "--checkpoint", str(pretrained),
                 "--data", str(corpus_file), "--limit", "4"]) == 0
    out = capsys.readouterr().out
    assert "task=corpus n_windows=4 ppl=" in out


def test_eval_empty_dataset_fails(finetuned, work, capsys):
    empty = work / "empty.jsonl"
    empty.write_text("\n")
    assert main(["eval", "--checkpoint", str(finetuned),
                 "--data", str(empty)]) == 1
    assert "empty" in capsys.readouterr().err


def test_eval_unknown_task_fails(pretrained, corpus_file, capsys):
    assert main(["eval", "--checkpoint", str(pretrained),
                 "--data", str(corpus_file), "--task", "nonsense"]) == 1


# ---------------------------------------------------------------------------
# interp


def test_interp_report(finetuned, countdown_file, work, capsys):
    report = work / "interp_out"
    dump_path = work / "acts.bin"
    assert main(["interp", "--checkpoint", str(finetuned),
                 "--data", str(countdown_file),
                 "--out", str(report),
                 "--dump-out", str(dump_path)]) == 0
    out = capsys.readouterr().out
    assert "tau=0.97" in out
    assert "global_silhouette=" in out
    assert (report / "capture.csv").exists()
    assert (report / "silhouette.csv").exists()
    assert (report / "summary.txt").exists()
    dump = load_dump(dump_path)
    assert dump.n_latents == 2
    assert all(r.shape[0] == 6 for r in dump.rows)


# ---------------------------------------------------------------------------
# passcount


def test_passcount_reference_ratio(capsys):
    assert main(["passcount", "--n-latents", "16", "--seq-len", "24"]) == 0
    out = capsys.readouterr().out
    assert ("n_latents=16 three_pass_passes=3 sequential_passes=17 "
            "ratio=5.667") in out


def test_passcount_zero_latents(capsys):
    assert main(["passcount", "--n-latents", "0", "--seq-len", "12"]) == 0
    out = capsys.readouterr().out
    assert "three_pass_passes=3 sequential_passes=1" in out


# ---------------------------------------------------------------------------
# exit codes


def test_missing_config_is_io_error(capsys):
    assert main(["pretrain", "--config", "/nonexistent/x.ini"]) == 2
    assert "io error" in capsys.readouterr().err


def test_missing_checkpoint_is_io_error(corpus_file, capsys):
    assert main(["eval", "--checkpoint", "/nonexistent/ck.bin",
                 "--data", str(corpus_file)]) == 2


def test_truncated_checkpoint_is_contract_error(tmp_path, capsys):
    path = tmp_path / "ck.bin"
    path.write_bytes(b"KVCK")
    assert main(["eval", "--checkpoint", str(path),
                 "--data", str(tmp_path / "x")]) == 1
    assert "error:" in capsys.readouterr().err


def test_checkpoint_with_trailing_bytes_is_contract_error(
        pretrained, corpus_file, tmp_path, capsys):
    path = tmp_path / "ck.bin"
    path.write_bytes(pretrained.read_bytes() + bytes(4))
    assert main(["eval", "--checkpoint", str(path),
                 "--data", str(corpus_file)]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_is_contract_error(pretrain_ini, capsys):
    assert main(["pretrain", "--config", pretrain_ini,
                 "--set", "train.bogus_key=1"]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_malformed_override_is_contract_error(pretrain_ini, capsys):
    assert main(["pretrain", "--config", pretrain_ini,
                 "--set", "notakeyvalue"]) == 1
