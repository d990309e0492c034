import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ctcfuse
from ctcfuse.cli import _apply_grid_point, main
from ctcfuse.data import build_vocab, load_vocab_file, write_features
from ctcfuse.model import FusionConfig, Model, ModelConfig
from ctcfuse.tensor import load_tensors, save_tensors
from ctcfuse.training import Adam, TrainConfig, save_checkpoint


def run_cli(*argv):
    return main(list(argv))


def error_lines(err: str) -> list[tuple[str, str]]:
    """``(kind, message)`` of every error line, the message JSON-decoded."""
    found = []
    for line in err.splitlines():
        match = re.fullmatch(r"error kind=(\w+) msg=(.*)", line)
        if match:
            found.append((match.group(1), json.loads(match.group(2))))
    return found


def one_error(err: str, kind: str) -> str:
    """The message of the single error line, which must be of ``kind``."""
    assert len(err.splitlines()) == 1, err
    [(found, msg)] = error_lines(err)
    assert found == kind
    return msg


def one_data_error(err: str) -> str:
    return one_error(err, "data")


def run_cli_process(*argv, cwd):
    """``ctcfuse`` in a child process, so numpy's warnings reach its real stderr."""
    src = str(Path(ctcfuse.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ctcfuse.cli", *argv], cwd=cwd,
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )


def edited_manifest(corpus_dir, tmp_path, line_no, edit):
    """Copy of the corpus manifest, absolute feature paths, one line rewritten."""
    rows = [l.split("\t") for l in (corpus_dir / "manifest.tsv").read_text().splitlines()]
    for row in rows:
        row[1] = str(corpus_dir / row[1])
    rows[line_no - 1] = edit(rows[line_no - 1])
    path = tmp_path / "edited.tsv"
    path.write_text("".join("\t".join(row) + "\n" for row in rows))
    return path


def three_fields(row):
    return [row[0], row[1], row[3]]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run_cli(
        "synth", "--out", str(out), "--vocab-size", "4", "--count", "10",
        "--min-len", "2", "--max-len", "4", "--min-frames", "8", "--max-frames", "10",
        "--feature-dim", "4", "--seed", "3",
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained(base_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert run_cli("train", "--config", str(base_config), "--out", str(out), "--quiet") == 0
    return out


@pytest.fixture(scope="module")
def base_config(corpus_dir, tmp_path_factory):
    cfg_dir = tmp_path_factory.mktemp("cfg")
    payload = {
        "data": {
            "manifest": str(corpus_dir / "manifest.tsv"),
            "vocab": str(corpus_dir / "vocab.txt"),
        },
        "model": {
            "d_model": 8, "num_heads": 2, "ffn_dim": 16,
            "encoder_layers": 1, "decoder_layers": 1, "ne_layers": 1,
            "feature_dim": 4,
        },
        "train": {"epochs": 2, "batch_size": 4, "seed": 5, "eval_every": 2,
                  "lr_base": 0.02, "warmup_steps": 10},
    }
    path = cfg_dir / "run.json"
    path.write_text(json.dumps(payload))
    return path


class TestSynthAndStats:
    def test_synth_writes_manifest_features_vocab(self, corpus_dir):
        assert (corpus_dir / "manifest.tsv").exists()
        assert (corpus_dir / "vocab.txt").exists()
        lines = (corpus_dir / "manifest.tsv").read_text().splitlines()
        assert len(lines) == 10
        assert len(lines[0].split("\t")) == 4

    def test_stats_from_manifest(self, corpus_dir, capsys):
        assert run_cli("stats", "--manifest", str(corpus_dir / "manifest.tsv")) == 0
        out = capsys.readouterr().out
        assert "1-5" in out
        assert "total=10" in out

    def test_stats_from_text(self, tmp_path, capsys):
        text = tmp_path / "t.txt"
        text.write_text("abc\nabcdefg\nabcdefghijkl\n")
        assert run_cli("stats", "--text", str(text)) == 0
        out = capsys.readouterr().out
        assert "33.33%" in out

    def test_stats_needs_exactly_one_source(self, capsys):
        assert run_cli("stats") == 1
        assert "kind=usage" in capsys.readouterr().err


POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "CTCFUSE_THREADS")

# after ``import ctcfuse.cli``: the OpenBLAS pin, and the process's OS threads after a matmul
PIN_PROBE = """
import os
import ctcfuse.cli
import numpy as np
a = np.ones((256, 256))
a @ a
print(os.environ.get("OPENBLAS_NUM_THREADS"), len(os.listdir("/proc/self/task")))
"""


class TestThreadPins:
    def probe(self, **env):
        """``(OPENBLAS_NUM_THREADS, OS threads)`` in a child whose pool variables are ``env``."""
        src = str(Path(ctcfuse.__file__).resolve().parent.parent)
        base = {k: v for k, v in os.environ.items() if k not in POOL_VARS}
        base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", PIN_PROBE], env={**base, **env},
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout.split()
        return out[0], int(out[1])

    def test_importing_the_cli_pins_one_thread(self):
        pin, threads = self.probe()
        assert pin == "1"
        if (os.cpu_count() or 1) > 1:
            assert threads == 1

    def test_ctcfuse_threads_sizes_the_pools(self):
        assert self.probe(CTCFUSE_THREADS="3")[0] == "3"

    def test_a_preset_pool_variable_wins(self):
        assert self.probe(CTCFUSE_THREADS="3", OPENBLAS_NUM_THREADS="2")[0] == "2"


class TestFlagDefaults:
    @pytest.mark.parametrize("command", ["decode", "eval"])
    def test_decode_flags_default_to_decode_config(self, command):
        from ctcfuse import cli
        from ctcfuse.decode import DecodeConfig

        args = cli._build_parser().parse_args([command, "--ckpt", "c", "--manifest", "m"])
        assert cli._decode_config(args) == DecodeConfig()

    def test_synth_flags_default_to_the_desk_corpus(self):
        from ctcfuse import cli
        from ctcfuse.data import SynthConfig, desk_synth_config

        args = cli._build_parser().parse_args(["synth"])
        assert SynthConfig(**cli._field_values(SynthConfig, args)) == desk_synth_config()


class TestTrain:
    def test_train_writes_run_directory(self, base_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(base_config), "--out", str(out), "--quiet") == 0
        assert (out / "metrics.jsonl").exists()
        assert (out / "model.ckpt").exists()
        assert (out / "model.ckpt.json").exists()
        assert (out / "resolved_config.json").exists()
        assert (out / "train.log").exists()
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["seed"] == 5
        assert len(meta["input_content_hash"]) == 64
        records = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in records] == [1, 2]

    def test_train_deterministic_metrics_and_parameters(self, base_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("train", "--config", str(base_config), "--out", str(out1), "--quiet") == 0
        assert run_cli("train", "--config", str(base_config), "--out", str(out2), "--quiet") == 0
        assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
        assert (out1 / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()

    def test_failed_rerun_leaves_no_file_of_the_earlier_run(self, base_config, tmp_path):
        out = tmp_path / "run"
        payload = json.loads(base_config.read_text())
        payload["train"]["epochs"] = 1
        first = tmp_path / "first.json"
        first.write_text(json.dumps(payload))
        assert run_cli("train", "--config", str(first), "--out", str(out), "--quiet") == 0
        assert (out / "model.ckpt").exists() and (out / "train.log").exists()
        payload["train"]["lr_base"] = 1e300
        second = tmp_path / "second.json"
        second.write_text(json.dumps(payload))
        proc = run_cli_process("train", "--config", str(second), "--out", str(out), "--quiet",
                               cwd=tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert sorted(os.listdir(out)) == [
            "metrics.jsonl", "resolved_config.json", "run_meta.json", "train.log"
        ]
        assert (out / "metrics.jsonl").read_text() == ""
        assert (out / "train.log").read_text() == ""
        assert json.loads((out / "resolved_config.json").read_text())["train"]["lr_base"] == 1e300

    def test_failed_epoch_leaves_the_log_of_earlier_epochs(
        self, base_config, tmp_path, capsys, monkeypatch
    ):
        from ctcfuse import training as tr_mod
        from ctcfuse.training import NumericError

        real_epoch = tr_mod.train_epoch

        def fail_in_epoch_2(corpus, vocab, model, optimizer, cfg, epoch):
            if epoch == 2:
                raise NumericError("epoch 2 batch 0 (x...): synthetic failure")
            return real_epoch(corpus, vocab, model, optimizer, cfg, epoch)

        monkeypatch.setattr(tr_mod, "train_epoch", fail_in_epoch_2)
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(base_config), "--out", str(out), "--quiet") == 3
        one_error(capsys.readouterr().err, "numeric")
        [line] = (out / "train.log").read_text().splitlines()
        assert line.startswith("epoch   1 joint=")

    def test_donor_may_be_the_directory_own_checkpoint(self, base_config, tmp_path):
        out = tmp_path / "run"
        payload = json.loads(base_config.read_text())
        payload["train"]["epochs"] = 1
        config = tmp_path / "run.json"
        config.write_text(json.dumps(payload))
        assert run_cli("train", "--config", str(config), "--out", str(out), "--quiet") == 0
        donor = load_tensors(out / "model.ckpt")
        payload["train"].update(pretrain_path=str(out / "model.ckpt"), lr_base=0.0)
        config.write_text(json.dumps(payload))
        assert run_cli("train", "--config", str(config), "--out", str(out), "--quiet") == 0
        warm = load_tensors(out / "model.ckpt")
        # lr 0 keeps the loaded encoder exactly as the donor left it
        assert np.array_equal(warm["encoder.sub.proj.w"], donor["encoder.sub.proj.w"])
        assert len((out / "metrics.jsonl").read_text().splitlines()) == 1

    def test_failed_python_rerun_leaves_no_file_of_the_cli_run(self, base_config, tmp_path):
        from ctcfuse.cli import resolve_run_config
        from ctcfuse.training import NumericError, train

        out = tmp_path / "run"
        assert run_cli("train", "--config", str(base_config), "--out", str(out), "--quiet") == 0
        assert sorted(os.listdir(out)) == [
            "metrics.jsonl", "model.ckpt", "model.ckpt.json", "resolved_config.json",
            "run_meta.json", "train.log",
        ]
        payload = json.loads(base_config.read_text())
        payload["train"]["lr_base"] = 1e300
        vocab, corpus, cfg, _ = resolve_run_config(payload)
        with pytest.raises(NumericError):
            train(corpus, vocab, cfg, out_dir=str(out))
        assert sorted(os.listdir(out)) == ["metrics.jsonl", "train.log"]
        assert (out / "metrics.jsonl").read_text() == ""
        assert (out / "train.log").read_text() == ""

    def test_numeric_failure_maps_to_exit_3(self, base_config, capsys, monkeypatch):
        from ctcfuse import cli
        from ctcfuse.training import NumericError

        def boom(*args, **kwargs):
            raise NumericError("epoch 1 batch 0 (x...): synthetic failure")

        monkeypatch.setattr(cli, "train", boom)
        assert run_cli("train", "--config", str(base_config)) == 3
        assert "kind=numeric" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, base_config, tmp_path, capsys):
        payload = json.loads(base_config.read_text())
        payload["train"]["learning_rate"] = 0.1  # typo for lr_base
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run_cli("train", "--config", str(bad)) == 1
        assert "learning_rate" in capsys.readouterr().err

    def test_missing_manifest_is_data_error(self, base_config, tmp_path, capsys):
        payload = json.loads(base_config.read_text())
        payload["data"] = {"manifest": str(tmp_path / "nope.tsv")}
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps(payload))
        assert run_cli("train", "--config", str(bad)) == 2
        assert "kind=data" in capsys.readouterr().err

    def test_bad_flag_is_usage_error(self, capsys):
        assert run_cli("train", "--no-such-flag") == 1
        assert "kind=usage" in capsys.readouterr().err

    def test_error_message_with_quote_parses_back(self, tmp_path, capsys):
        config = str(tmp_path / 'no"q.json')
        assert run_cli("train", "--config", config) == 2
        assert error_lines(capsys.readouterr().err) == [
            ("data", f"config file not found: {config}")
        ]

    def test_plain_error_message_unchanged(self, capsys):
        assert run_cli("stats") == 1
        err = capsys.readouterr().err
        assert err == 'error kind=usage msg="stats needs exactly one of --manifest or --text"\n'


class TestDecodeEval:
    def test_decode_writes_hypotheses(self, trained, corpus_dir, tmp_path):
        hyp = tmp_path / "hyp.tsv"
        code = run_cli(
            "decode", "--ckpt", str(trained / "model.ckpt"),
            "--manifest", str(corpus_dir / "manifest.tsv"),
            "--vocab", str(corpus_dir / "vocab.txt"),
            "--beam", "2", "--out", str(hyp),
        )
        assert code == 0
        lines = hyp.read_text().splitlines()
        assert len(lines) == 10
        assert all(len(l.split("\t")) == 3 for l in lines)

    def test_decode_nbest_dump(self, trained, corpus_dir, tmp_path):
        hyp = tmp_path / "hyp.tsv"
        code = run_cli(
            "decode", "--ckpt", str(trained / "model.ckpt"),
            "--manifest", str(corpus_dir / "manifest.tsv"),
            "--vocab", str(corpus_dir / "vocab.txt"),
            "--method", "ctc_rescore", "--beam", "3",
            "--nbest", "2", "--out", str(hyp),
        )
        assert code == 0
        nbest = (str(hyp) + ".nbest.tsv")
        lines = open(nbest).read().splitlines()
        assert all(len(l.split("\t")) == 4 for l in lines if l)

    def test_eval_from_checkpoint(self, trained, corpus_dir, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        code = run_cli(
            "eval", "--ckpt", str(trained / "model.ckpt"),
            "--manifest", str(corpus_dir / "manifest.tsv"),
            "--vocab", str(corpus_dir / "vocab.txt"),
            "--beam", "1", "--out", str(report),
        )
        assert code == 0
        assert "corpus CER" in capsys.readouterr().out
        lines = report.read_text().splitlines()
        assert json.loads(lines[-1])["summary"] is True

    def test_eval_from_perfect_hypothesis_file(self, corpus_dir, tmp_path, capsys):
        manifest = corpus_dir / "manifest.tsv"
        rows = [l.split("\t") for l in manifest.read_text().splitlines()]
        hyp = tmp_path / "perfect.tsv"
        hyp.write_text(
            "".join(f"{r[0]}\t0.0\t{' '.join(r[3])}\n" for r in rows)
        )
        code = run_cli(
            "eval", "--hyp", str(hyp), "--manifest", str(manifest),
            "--vocab", str(corpus_dir / "vocab.txt"),
        )
        assert code == 0
        assert "corpus CER 0.0000" in capsys.readouterr().out

    def test_eval_needs_one_source(self, corpus_dir, capsys):
        assert run_cli("eval", "--manifest", str(corpus_dir / "manifest.tsv")) == 1

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("decode", "--beam", "0"),
            ("decode", "--nbest", "-1"),
            ("decode", "--max-len-factor", "0"),
            ("decode", "--max-len-factor", "nan"),
            ("eval", "--beam", "0"),
            ("eval", "--max-len-factor", "0"),
            ("eval", "--max-len-factor", "nan"),
        ],
    )
    def test_bad_decode_flag_is_usage_error(self, trained, corpus_dir, capsys, command, flag, value):
        code = run_cli(
            command, "--ckpt", str(trained / "model.ckpt"),
            "--manifest", str(corpus_dir / "manifest.tsv"),
            "--vocab", str(corpus_dir / "vocab.txt"),
            flag, value,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert [kind for kind, _ in error_lines(err)] == ["usage"]
        assert len(err.splitlines()) == 1


class TestNumericErrors:
    """A non-finite value is exit 3 and stderr is that one error line."""

    @pytest.fixture(scope="class")
    def overflowing(self, trained, tmp_path_factory):
        """The trained checkpoint with an output layer whose logits overflow."""
        out = tmp_path_factory.mktemp("overflow")
        arrays = load_tensors(trained / "model.ckpt")
        arrays["decoder.out.w"] = np.full_like(arrays["decoder.out.w"], 1e308)
        save_tensors(out / "model.ckpt", arrays)
        (out / "model.ckpt.json").write_bytes((trained / "model.ckpt.json").read_bytes())
        return out / "model.ckpt"

    @pytest.mark.parametrize(
        "command,method",
        [("decode", "attention"), ("decode", "ctc_rescore"), ("eval", "attention")],
    )
    def test_decoding_overflow(self, overflowing, corpus_dir, tmp_path, command, method):
        proc = run_cli_process(
            command, "--ckpt", str(overflowing), "--manifest", str(corpus_dir / "manifest.tsv"),
            "--vocab", str(corpus_dir / "vocab.txt"), "--method", method, "--beam", "2",
            cwd=tmp_path,
        )
        assert proc.returncode == 3, proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        [(kind, msg)] = error_lines(proc.stderr)
        first = (corpus_dir / "manifest.tsv").read_text().split("\t", 1)[0]
        assert kind == "numeric" and f"utterance {first}:" in msg

    def test_training_overflow(self, base_config, tmp_path):
        payload = json.loads(base_config.read_text())
        payload["train"]["lr_base"] = 1e300
        config = tmp_path / "run.json"
        config.write_text(json.dumps(payload))
        proc = run_cli_process("train", "--config", str(config), "--quiet", cwd=tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        [(kind, msg)] = error_lines(proc.stderr)
        assert kind == "numeric" and "epoch 1 batch" in msg

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_train_cer_overflow(self, base_config, corpus_dir, tmp_path, capsys, monkeypatch,
                                command):
        from ctcfuse import training

        original = training.train_epoch

        def overflow_after_epoch(corpus, vocab, model, *args, **kwargs):
            metrics = original(corpus, vocab, model, *args, **kwargs)
            # finite, but log-softmax puts the two logits 2e308 apart: -inf
            model.params["decoder.out.b"].data[:2] = (1e308, -1e308)
            return metrics

        monkeypatch.setattr(training, "train_epoch", overflow_after_epoch)
        payload = json.loads(base_config.read_text())
        payload["train"]["eval_every"] = 1
        config = tmp_path / "run.json"
        config.write_text(json.dumps(payload))
        argv = ["--config", str(config), "--out", str(tmp_path / "run"), "--quiet"]
        if command == "sweep":
            argv += ["--grid", "method=baseline"]
        assert run_cli(command, *argv) == 3
        msg = one_error(capsys.readouterr().err, "numeric")
        first = (corpus_dir / "manifest.tsv").read_text().split("\t", 1)[0]
        assert msg.startswith(f"utterance {first}: ")

    def test_nbest_overflow(self, trained, corpus_dir, tmp_path):
        arrays = load_tensors(trained / "model.ckpt")
        arrays["ctc_head.b"][:2] = (1e308, -1e308)  # the CTC log-softmax overflows
        save_tensors(tmp_path / "model.ckpt", arrays)
        (tmp_path / "model.ckpt.json").write_bytes((trained / "model.ckpt.json").read_bytes())
        proc = run_cli_process(
            "decode", "--ckpt", str(tmp_path / "model.ckpt"),
            "--manifest", str(corpus_dir / "manifest.tsv"), "--vocab", str(corpus_dir / "vocab.txt"),
            "--beam", "2", "--nbest", "2", "--out", str(tmp_path / "hyp.tsv"), cwd=tmp_path,
        )
        assert proc.returncode == 3, proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        [(kind, msg)] = error_lines(proc.stderr)
        first = (corpus_dir / "manifest.tsv").read_text().split("\t", 1)[0]
        assert kind == "numeric" and f"utterance {first}:" in msg


class TestDataErrors:
    def test_stats_three_field_line(self, corpus_dir, tmp_path, capsys):
        manifest = edited_manifest(corpus_dir, tmp_path, 3, three_fields)
        assert run_cli("stats", "--manifest", str(manifest)) == 2
        assert f"{manifest}:3:" in one_data_error(capsys.readouterr().err)

    def test_decode_three_field_line_without_vocab(self, trained, corpus_dir, tmp_path, capsys):
        manifest = edited_manifest(corpus_dir, tmp_path, 3, three_fields)
        code = run_cli("decode", "--ckpt", str(trained / "model.ckpt"), "--manifest", str(manifest))
        assert code == 2
        assert f"{manifest}:3:" in one_data_error(capsys.readouterr().err)

    def test_train_three_field_line_without_vocab(self, base_config, corpus_dir, tmp_path, capsys):
        manifest = edited_manifest(corpus_dir, tmp_path, 3, three_fields)
        payload = json.loads(base_config.read_text())
        payload["data"] = {"manifest": str(manifest)}
        config = tmp_path / "run.json"
        config.write_text(json.dumps(payload))
        assert run_cli("train", "--config", str(config)) == 2
        assert f"{manifest}:3:" in one_data_error(capsys.readouterr().err)

    def test_decode_non_integer_frame_count(self, trained, corpus_dir, tmp_path, capsys):
        manifest = edited_manifest(
            corpus_dir, tmp_path, 4, lambda row: [row[0], row[1], "ten", row[3]]
        )
        code = run_cli(
            "decode", "--ckpt", str(trained / "model.ckpt"), "--manifest", str(manifest),
            "--vocab", str(corpus_dir / "vocab.txt"),
        )
        assert code == 2
        assert f"{manifest}:4:" in one_data_error(capsys.readouterr().err)

    @pytest.mark.parametrize("part", ["container", "sidecar", "sidecar_list"])
    def test_corrupt_checkpoint(self, trained, corpus_dir, tmp_path, capsys, part):
        blob = (trained / "model.ckpt").read_bytes()
        sidecar = (trained / "model.ckpt.json").read_text()
        if part == "container":
            blob = blob[: len(blob) // 2]
        elif part == "sidecar":
            sidecar = sidecar[:-5]
        else:
            sidecar = "[]\n"
        (tmp_path / "model.ckpt").write_bytes(blob)
        (tmp_path / "model.ckpt.json").write_text(sidecar)
        code = run_cli(
            "decode", "--ckpt", str(tmp_path / "model.ckpt"),
            "--manifest", str(corpus_dir / "manifest.tsv"),
            "--vocab", str(corpus_dir / "vocab.txt"),
        )
        assert code == 2
        assert str(tmp_path / "model.ckpt") in one_data_error(capsys.readouterr().err)

    @pytest.mark.parametrize(
        "damage", ["truncated", "sidecar_not_json", "format_version", "vocabulary", "width"]
    )
    def test_unusable_donor(self, base_config, trained, corpus_dir, tmp_path, capsys, damage):
        donor = tmp_path / "donor.ckpt"
        if damage in ("vocabulary", "width"):
            vocab = load_vocab_file(corpus_dir / "vocab.txt")
            if damage == "vocabulary":
                vocab = build_vocab(["xyz"])
            model_cfg = ModelConfig(
                d_model=16 if damage == "width" else 8, num_heads=2, ffn_dim=16,
                encoder_layers=1, decoder_layers=1, ne_layers=1,
                vocab_size=vocab.size, feature_dim=4,
            )
            model = Model(model_cfg, FusionConfig(), seed=0)
            cfg = TrainConfig(model=model_cfg)
            save_checkpoint(donor, model, Adam(model.params, cfg), cfg, vocab, epoch=1)
        else:
            blob = (trained / "model.ckpt").read_bytes()
            sidecar = (trained / "model.ckpt.json").read_text()
            if damage == "truncated":
                blob = blob[:100]
            elif damage == "sidecar_not_json":
                sidecar = sidecar[:-5]
            else:
                sidecar = sidecar.replace('"format_version": 1', '"format_version": 9')
            donor.write_bytes(blob)
            (tmp_path / "donor.ckpt.json").write_text(sidecar)
        payload = json.loads(base_config.read_text())
        payload["train"].update(pretrain_path=str(donor), pretrain_selection="encoder")
        config = tmp_path / "run.json"
        config.write_text(json.dumps(payload))
        assert run_cli("train", "--config", str(config), "--quiet") == 2
        assert str(donor) in one_data_error(capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["decode", "eval"])
    def test_too_short_utterance(
        self, trained, corpus_dir, tmp_path, capsys, monkeypatch, command
    ):
        from ctcfuse import decode

        def never(*args, **kwargs):
            raise AssertionError("decoded before every utterance was checked")

        monkeypatch.setattr(decode, "attention_beam_decode", never)
        short = tmp_path / "short.feat"
        write_features(short, np.zeros((3, 4), dtype=np.float32))
        manifest = edited_manifest(
            corpus_dir, tmp_path, 10, lambda row: ["tiny", str(short), "3", row[3]]
        )
        code = run_cli(
            command, "--ckpt", str(trained / "model.ckpt"), "--manifest", str(manifest),
            "--vocab", str(corpus_dir / "vocab.txt"),
        )
        assert code == 2
        assert "utterance tiny" in one_data_error(capsys.readouterr().err)


class TestAlign:
    def test_reference_example(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        hyp = tmp_path / "hyp.txt"
        ref.write_text("ABCA\n")
        hyp.write_text("ACA\n")
        assert run_cli("align", str(ref), str(hyp)) == 0
        out = capsys.readouterr().out
        assert "REF: A B C A" in out
        assert "HYP: A - C A" in out
        assert "blanks_inserted: 1" in out

    def test_line_count_mismatch(self, tmp_path, capsys):
        ref = tmp_path / "r.txt"
        hyp = tmp_path / "h.txt"
        ref.write_text("AB\nCD\n")
        hyp.write_text("AB\n")
        assert run_cli("align", str(ref), str(hyp)) == 2


class TestSweepReport:
    def test_sweep_creates_runs_and_table(self, base_config, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--config", str(base_config),
            "--grid", "alpha=0.0,0.5", "method=embed_fusion",
            "--out", str(out), "--quiet",
        )
        assert code == 0
        runs = [d for d in os.listdir(out) if d.startswith("run_")]
        assert len(runs) == 2
        table = (out / "comparison.tsv").read_text().splitlines()
        assert len(table) == 3  # header + 2 rows
        assert table[0].split("\t")[0] == "run"

        # each run directory is the one `train` writes for the same grid point
        payload = json.loads(base_config.read_text())
        for alpha in ("0.0", "0.5"):
            point = {"alpha": alpha, "method": "embed_fusion"}
            run = out / f"run_alpha={alpha}_method=embed_fusion"
            assert (run / "train.log").exists()
            config = tmp_path / f"point_{alpha}.json"
            config.write_text(json.dumps(_apply_grid_point(payload, point)))
            single = tmp_path / f"single_{alpha}"
            assert run_cli("train", "--config", str(config), "--out", str(single), "--quiet") == 0
            for name in ("metrics.jsonl", "model.ckpt", "model.ckpt.json",
                         "resolved_config.json", "run_meta.json"):
                assert (run / name).read_bytes() == (single / name).read_bytes(), name

    def test_sweep_rejects_unknown_key(self, base_config, tmp_path, capsys):
        assert (
            run_cli("sweep", "--config", str(base_config), "--grid", "bogus=1",
                    "--out", str(tmp_path / "x")) == 1
        )

    def test_report_renders_table_and_csv(self, base_config, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert run_cli("train", "--config", str(base_config), "--out", str(run_dir), "--quiet") == 0
        capsys.readouterr()
        assert run_cli("report", "--run", str(run_dir)) == 0
        out = capsys.readouterr().out
        assert "epoch" in out and "blanks" in out
        loss = (run_dir / "loss.csv").read_text().splitlines()
        assert loss[0] == "x,series,value"
        assert any(line.startswith("1,joint_loss,") for line in loss)
        blanks = (run_dir / "blanks.csv").read_text().splitlines()
        assert blanks[1].startswith("1,blanks_inserted,")

    def test_report_missing_metrics_is_data_error(self, tmp_path, capsys):
        assert run_cli("report", "--metrics", str(tmp_path / "none.jsonl")) == 2


class TestMalformedInput:
    """Malformed input ends in its documented exit code and one error line, not a traceback."""

    @pytest.mark.parametrize(
        "payload",
        [[], 1, {"data": {"synth": "abc"}}, {"data": {"synth": {}}, "model": [1]}],
        ids=["list", "number", "synth_not_object", "model_not_object"],
    )
    def test_config_that_is_not_an_object_is_usage_error(self, tmp_path, capsys, payload):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(payload))
        assert run_cli("train", "--config", str(config)) == 1
        one_error(capsys.readouterr().err, "usage")

    @pytest.mark.parametrize(
        "key,value", [("aef_align_before_gate", False), ("batch_policy", "none")]
    )
    def test_removed_train_option_is_usage_error(
        self, base_config, tmp_path, capsys, key, value
    ):
        payload = json.loads(base_config.read_text())
        payload["train"][key] = value
        config = tmp_path / "run.json"
        config.write_text(json.dumps(payload))
        assert run_cli("train", "--config", str(config)) == 1
        assert key in one_error(capsys.readouterr().err, "usage")

    def test_removed_model_option_is_usage_error(self, base_config, tmp_path, capsys):
        payload = json.loads(base_config.read_text())
        payload["model"]["pos_encoding"] = "sinusoidal"
        config = tmp_path / "run.json"
        config.write_text(json.dumps(payload))
        assert run_cli("train", "--config", str(config)) == 1
        assert "pos_encoding" in one_error(capsys.readouterr().err, "usage")

    @pytest.mark.parametrize("flag", ["--seed", "--feature-dim"])
    def test_negative_synth_flag_is_data_error(self, tmp_path, capsys, flag):
        assert run_cli("synth", "--out", str(tmp_path / "c"), "--count", "1", flag, "-1") == 2
        assert flag[2:].replace("-", "_") in one_data_error(capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [["stats", "--manifest", ""], ["stats", "--text", ""]])
    def test_empty_path_is_data_error(self, capsys, argv):
        assert run_cli(*argv) == 2
        one_data_error(capsys.readouterr().err)

    def test_feature_header_claiming_more_than_the_file_is_data_error(
        self, corpus_dir, tmp_path, capsys
    ):
        # rows = cols = 2**32 - 1 claims a payload too large to read at all
        feat = tmp_path / "huge.feat"
        feat.write_bytes(b"FEAT" + struct.pack("<IIIB", 1, 2**32 - 1, 2**32 - 1, 1) + b"\0" * 8)
        manifest = edited_manifest(
            corpus_dir, tmp_path, 1, lambda row: [row[0], str(feat), row[2], row[3]]
        )
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "data": {"manifest": str(manifest), "vocab": str(corpus_dir / "vocab.txt")},
            "train": {"epochs": 1},
        }))
        assert run_cli("train", "--config", str(config), "--out", str(tmp_path / "run")) == 2
        assert "truncated feature payload" in one_data_error(capsys.readouterr().err)

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("train", "epochs", 0),
            ("train", "batch_size", 0),
            ("train", "eval_every", 0),
            ("train", "epochs", "3"),
            ("train", "epochs", True),
            ("train", "seed", "7"),
            ("train", "lr_base", "0.1"),
            ("train", "stop_at_train_cer", "x"),
            ("fusion", "n", 2.5),
            ("data", "manifest", ["x"]),
            ("data", "vocab", ["x"]),
        ],
    )
    def test_bad_config_value_is_usage_error(
        self, base_config, tmp_path, capsys, section, key, value
    ):
        payload = json.loads(base_config.read_text())
        payload.setdefault(section, {})[key] = value
        config = tmp_path / "run.json"
        config.write_text(json.dumps(payload))
        assert run_cli("train", "--config", str(config)) == 1
        assert key in one_error(capsys.readouterr().err, "usage")

    def test_sweep_grid_value_not_a_number_is_usage_error(self, base_config, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--config", str(base_config), "--grid", "alpha=0.5,x", "--out", str(out)
        )
        assert code == 1
        assert "'x'" in one_error(capsys.readouterr().err, "usage")
        assert os.listdir(out) == []  # checked before the first run

    @pytest.mark.parametrize(
        "text",
        [
            '{"epoch": 1, "joint_loss": 2.0\n',
            json.dumps({"epoch": 1, "ctc_loss": 2.0, "att_loss": 1.0, "blanks_inserted": 0}),
        ],
        ids=["not_json", "no_joint_loss"],
    )
    def test_malformed_metrics_record_is_data_error(self, tmp_path, capsys, text):
        metrics = tmp_path / "metrics.jsonl"
        metrics.write_text(text)
        assert run_cli("report", "--metrics", str(metrics)) == 2
        assert f"{metrics}:1:" in one_data_error(capsys.readouterr().err)

    @pytest.mark.parametrize("source", ["manifest", "text", "align_ref", "align_hyp"])
    def test_input_that_is_not_utf8_is_data_error(self, corpus_dir, tmp_path, capsys, source):
        bad = tmp_path / "bad.txt"
        good = corpus_dir / "manifest.tsv"
        bad.write_bytes(good.read_bytes()[:40] + b"\xff\xfe" + good.read_bytes()[40:])
        argv = {
            "manifest": ["stats", "--manifest", str(bad)],
            "text": ["stats", "--text", str(bad)],
            "align_ref": ["align", str(bad), str(good)],
            "align_hyp": ["align", str(good), str(bad)],
        }[source]
        assert run_cli(*argv) == 2
        assert str(bad) in one_data_error(capsys.readouterr().err)

    @pytest.mark.parametrize(
        "argv", [["stats", "--manifest"], ["stats", "--text"], ["report", "--metrics"]]
    )
    def test_directory_given_as_input_file_is_data_error(self, tmp_path, capsys, argv):
        assert run_cli(*argv, str(tmp_path)) == 2
        assert str(tmp_path) in one_data_error(capsys.readouterr().err)
