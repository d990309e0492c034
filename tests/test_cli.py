import builtins
import collections
import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ctcfuse
from ctcfuse.cli import _apply_grid_point, main
from ctcfuse.data import (SynthConfig, UsageError, build_vocab, load_vocab_file, synth_corpus,
                          write_features)
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


def run_cli_process(*argv, cwd, preexec_fn=None):
    """``ctcfuse`` in a child process, so numpy's warnings reach its real stderr."""
    src = str(Path(ctcfuse.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ctcfuse.cli", *argv], cwd=cwd, preexec_fn=preexec_fn,
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

    @pytest.mark.parametrize("command", ["synth", "sweep"])
    def test_missing_out_is_usage_error(self, base_config, tmp_path, monkeypatch, capsys,
                                        command):
        argv = [command]
        if command == "sweep":
            argv += ["--config", str(base_config), "--grid", "method=baseline"]
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(tmp_path))
        assert run_cli(*argv) == 1
        assert "--out" in one_error(capsys.readouterr().err, "usage")
        assert sorted(os.listdir(tmp_path)) == before


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

        args = cli._build_parser().parse_args(["synth", "--out", "corpus"])  # parsed, not run
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

    @pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
    def test_input_content_hash_is_manifest_then_feature_bytes(
        self, base_config, corpus_dir, tmp_path, crlf
    ):
        manifest = corpus_dir / "manifest.tsv"
        if crlf:
            lf_copy = edited_manifest(corpus_dir, tmp_path, 1, lambda row: row)
            manifest = tmp_path / "crlf.tsv"
            manifest.write_bytes(lf_copy.read_bytes().replace(b"\n", b"\r\n"))
        expected = hashlib.sha256(manifest.read_bytes())
        for line in manifest.read_text().splitlines():
            expected.update((manifest.parent / line.split("\t")[1]).read_bytes())
        payload = json.loads(base_config.read_text())
        payload["data"]["manifest"] = str(manifest)
        payload["train"]["epochs"] = 1
        config = tmp_path / "run.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(config), "--out", str(out), "--quiet") == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["input_content_hash"] == expected.hexdigest()

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
        vocab, corpus, _, [(cfg, _)] = resolve_run_config(payload)
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

    def test_memory_error_maps_to_exit_3(self, base_config, tmp_path):
        import resource

        def cap_address_space():  # a 2 GB cap, so the failing allocation cannot reach the machine
            resource.setrlimit(resource.RLIMIT_AS, (2 * 1024**3, 2 * 1024**3))

        payload = json.loads(base_config.read_text())
        # ne.proj alone needs 1.5 * 10**6 * 8 * 8 floats: under cli.MAX_PARAMETERS, over the cap
        payload["fusion"] = {"method": "nbest_memory", "n": 1_500_000, "beam_width": 1_500_000}
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "run"
        done = run_cli_process("train", "--config", str(config), "--out", str(out), "--quiet",
                               cwd=tmp_path, preexec_fn=cap_address_space)
        assert done.returncode == 3, done.stderr
        assert "Unable to allocate" in one_error(done.stderr, "memory")
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("model", "d_model", 10**6), ("model", "encoder_layers", 10**6), ("fusion", "n", 10**8),
    ])
    def test_a_model_too_large_is_refused_naming_its_key(self, base_config, tmp_path, capsys,
                                                         section, key, value):
        payload = json.loads(base_config.read_text())
        payload[section] = {**payload.get(section, {}), key: value}
        if section == "fusion":
            payload["fusion"].update(method="nbest_memory", beam_width=value)
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "run"
        start = time.perf_counter()
        assert run_cli("train", "--config", str(config), "--out", str(out), "--quiet") == 1
        assert time.perf_counter() - start < 1.0
        msg = one_error(capsys.readouterr().err, "usage")
        assert msg.startswith(f"{section}.{key} = {value}: the model would hold ")
        assert not out.exists()

    # a corpus of 10**9 default utterances holds too many feature values, and
    # one of 10**8 one-float utterances too many utterances
    @pytest.mark.parametrize("command, count", [("synth", 10**9), ("train", 10**9),
                                                ("synth-tiny", 10**8)],
                             ids=["synth", "train", "synth-tiny"])
    def test_a_synthetic_corpus_too_large_is_refused_naming_count(self, base_config, tmp_path,
                                                                  capsys, command, count):
        out = tmp_path / "out"
        if command == "synth":
            argv = ["synth", "--out", str(out), "--count", str(count)]
        elif command == "synth-tiny":
            argv = ["synth", "--out", str(out), "--count", str(count), "--min-len", "1",
                    "--max-len", "1", "--min-frames", "1", "--max-frames", "1",
                    "--feature-dim", "1"]
        else:
            payload = json.loads(base_config.read_text())
            payload["data"] = {"synth": {"count": count, "feature_dim": 4}}
            config = tmp_path / "huge.json"
            config.write_text(json.dumps(payload))
            argv = ["train", "--config", str(config), "--out", str(out), "--quiet"]
        start = time.perf_counter()
        assert run_cli(*argv) == 2
        assert time.perf_counter() - start < 1.0
        assert one_data_error(capsys.readouterr().err).startswith(f"count = {count}: ")
        assert not out.exists()

    def test_memory_error_without_message_prints_fixed_text(self, capsys, monkeypatch):
        from ctcfuse import cli

        def no_message(args):
            raise MemoryError()

        monkeypatch.setattr(cli, "cmd_report", no_message)
        assert run_cli("report", "--metrics", "unread.jsonl") == 3
        assert one_error(capsys.readouterr().err, "memory") == "an allocation failed and named no size"

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

    def test_decode_nbest_without_out_overwrites_nbest_tsv(self, trained, corpus_dir, tmp_path):
        argv = ["decode", "--ckpt", str(trained / "model.ckpt"),
                "--manifest", str(corpus_dir / "manifest.tsv"),
                "--vocab", str(corpus_dir / "vocab.txt"), "--beam", "2", "--nbest", "2"]
        hyp = tmp_path / "hyp.tsv"
        assert run_cli(*argv, "--out", str(hyp)) == 0
        work = tmp_path / "work"
        work.mkdir()
        (work / "nbest.tsv").write_text("old\n")
        proc = run_cli_process(*argv, cwd=work)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == hyp.read_text()
        assert (work / "nbest.tsv").read_bytes() == (tmp_path / "hyp.tsv.nbest.tsv").read_bytes()

    @pytest.mark.parametrize("method", ["attention", "ctc_rescore"])
    def test_decode_nbest_encodes_each_utterance_once(self, trained, corpus_dir, tmp_path,
                                                      monkeypatch, method):
        argv = ["decode", "--ckpt", str(trained / "model.ckpt"),
                "--manifest", str(corpus_dir / "manifest.tsv"), "--beam", "3"]
        assert run_cli(*argv, "--method", method, "--out", str(tmp_path / "plain.tsv")) == 0
        calls = []
        real_encode = Model.encode
        monkeypatch.setattr(Model, "encode", lambda *a, **kw: calls.append(1) or real_encode(*a, **kw))
        hyp = tmp_path / "hyp.tsv"
        assert run_cli(*argv, "--method", method, "--nbest", "3", "--out", str(hyp)) == 0
        assert len(calls) == 10  # the corpus holds 10 utterances
        # the shared encoder pass leaves the hypotheses as a decode without --nbest writes them
        assert hyp.read_bytes() == (tmp_path / "plain.tsv").read_bytes()
        nbest = tmp_path / "hyp.tsv.nbest.tsv"
        assert len(nbest.read_text().splitlines()) >= 10
        # the CTC list does not depend on the decoder
        other = {"attention": "ctc_rescore", "ctc_rescore": "attention"}[method]
        out = tmp_path / "other.tsv"
        assert run_cli(*argv, "--method", other, "--nbest", "3", "--out", str(out)) == 0
        assert (tmp_path / "other.tsv.nbest.tsv").read_bytes() == nbest.read_bytes()

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
            ("decode", "--max-len-factor", "inf"),
            ("eval", "--max-len-factor", "inf"),
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


class TestInputReads:
    """A command that loads a corpus opens its manifest and each feature file once."""

    @pytest.mark.parametrize(
        "command", ["train", "train_with_vocab", "decode", "eval_ckpt", "eval_hyp", "sweep"]
    )
    def test_each_input_file_is_opened_once(
        self, base_config, trained, corpus_dir, tmp_path, monkeypatch, command
    ):
        manifest = corpus_dir / "manifest.tsv"
        rows = [l.split("\t") for l in manifest.read_text().splitlines()]
        if command.startswith("train") or command == "sweep":
            payload = json.loads(base_config.read_text())
            payload["train"]["epochs"] = 1
            if command == "train":
                del payload["data"]["vocab"]
            config = tmp_path / "run.json"
            config.write_text(json.dumps(payload))
            argv = [command.split("_")[0], "--config", str(config),
                    "--out", str(tmp_path / "run"), "--quiet"]
            if command == "sweep":  # a 2x2 grid: four runs over one corpus
                argv += ["--grid", "alpha=0.3,0.7", "method=embed_fusion,aligned_fusion"]
        elif command == "eval_hyp":
            hyp = tmp_path / "perfect.tsv"
            hyp.write_text("".join(f"{r[0]}\t0.0\t{' '.join(r[3])}\n" for r in rows))
            argv = ["eval", "--hyp", str(hyp), "--manifest", str(manifest)]
        else:
            argv = [command.split("_")[0], "--ckpt", str(trained / "model.ckpt"),
                    "--manifest", str(manifest), "--beam", "1"]
        opens = collections.Counter()
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                opens[os.path.abspath(file)] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert run_cli(*argv) == 0
        monkeypatch.undo()
        inputs = [str(manifest)] + [str(corpus_dir / r[1]) for r in rows]
        assert {path: opens[path] for path in inputs} == {path: 1 for path in inputs}


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

    @pytest.mark.parametrize("command", ["decode", "eval"])
    def test_non_finite_checkpoint(self, trained, corpus_dir, tmp_path, capsys, command):
        arrays = load_tensors(trained / "model.ckpt")
        arrays["decoder.out.b"][0] = np.nan
        save_tensors(tmp_path / "model.ckpt", arrays)
        (tmp_path / "model.ckpt.json").write_bytes((trained / "model.ckpt.json").read_bytes())
        code = run_cli(
            command, "--ckpt", str(tmp_path / "model.ckpt"),
            "--manifest", str(corpus_dir / "manifest.tsv"),
            "--vocab", str(corpus_dir / "vocab.txt"),
        )
        assert code == 2
        msg = one_data_error(capsys.readouterr().err)
        assert str(tmp_path / "model.ckpt") in msg and "decoder.out.b" in msg

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "sidecar_not_json", "format_version", "vocabulary", "width", "nonfinite"],
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
            elif damage == "nonfinite":  # in a parameter the "encoder" selection skips
                arrays = load_tensors(trained / "model.ckpt")
                arrays["decoder.out.b"][0] = np.nan
                save_tensors(donor, arrays)
                blob = donor.read_bytes()
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

    @pytest.mark.parametrize("command", ["train", "decode"])
    def test_vocab_file_that_repeats_a_token(
        self, base_config, trained, corpus_dir, tmp_path, capsys, command
    ):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text((corpus_dir / "vocab.txt").read_text() + "a\n")
        out = tmp_path / "run"
        if command == "train":
            payload = json.loads(base_config.read_text())
            payload["data"]["vocab"] = str(vocab)
            config = tmp_path / "run.json"
            config.write_text(json.dumps(payload))
            argv = ["train", "--config", str(config), "--out", str(out)]
        else:
            argv = ["decode", "--ckpt", str(trained / "model.ckpt"),
                    "--manifest", str(corpus_dir / "manifest.tsv"), "--vocab", str(vocab)]
        assert run_cli(*argv) == 2
        assert f"{vocab}: vocabulary repeats token 'a'" in one_data_error(capsys.readouterr().err)
        assert not out.exists()

    @pytest.fixture
    def never_decode(self, monkeypatch):
        """Fails the test if any utterance is decoded."""
        from ctcfuse import decode

        def never(*args, **kwargs):
            raise AssertionError("decoded before every utterance was checked")

        monkeypatch.setattr(decode, "_decode", never)

    @pytest.mark.parametrize("command", ["decode", "eval"])
    def test_too_short_utterance(self, trained, corpus_dir, tmp_path, capsys, never_decode, command):
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

    @pytest.mark.parametrize("command", ["decode", "eval"])
    def test_features_wider_than_the_model(
        self, trained, corpus_dir, tmp_path, capsys, never_decode, command
    ):
        wide = tmp_path / "wide"
        code = run_cli("synth", "--out", str(wide), "--vocab-size", "4", "--count", "2",
                       "--feature-dim", "8")
        assert code == 0
        code = run_cli(
            command, "--ckpt", str(trained / "model.ckpt"),
            "--manifest", str(wide / "manifest.tsv"), "--vocab", str(corpus_dir / "vocab.txt"),
        )
        assert code == 2
        msg = one_data_error(capsys.readouterr().err)
        assert "utterance synth-00000" in msg and "8 wide" in msg

    @pytest.mark.parametrize("command", ["decode", "eval"])
    @pytest.mark.parametrize("extra", [8, -2])
    def test_checkpoint_vocab_size_unlike_the_vocabulary(
        self, corpus_dir, tmp_path, capsys, never_decode, command, extra
    ):
        vocab = load_vocab_file(corpus_dir / "vocab.txt")
        model_cfg = ModelConfig(
            d_model=8, num_heads=2, ffn_dim=16, encoder_layers=1, decoder_layers=1,
            vocab_size=vocab.size + extra, feature_dim=4,
        )
        model = Model(model_cfg, FusionConfig(), seed=0)
        cfg = TrainConfig(model=model_cfg)
        save_checkpoint(tmp_path / "model.ckpt", model, Adam(model.params, cfg), cfg, vocab, 1)
        code = run_cli(
            command, "--ckpt", str(tmp_path / "model.ckpt"),
            "--manifest", str(corpus_dir / "manifest.tsv"), "--vocab", str(corpus_dir / "vocab.txt"),
        )
        assert code == 2
        msg = one_data_error(capsys.readouterr().err)
        assert f"vocab_size {vocab.size + extra}" in msg and f"{vocab.size} tokens" in msg

    @pytest.mark.parametrize("command", ["decode", "eval"])
    def test_vocabulary_unlike_the_checkpoints(
        self, trained, corpus_dir, tmp_path, capsys, never_decode, command
    ):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text((corpus_dir / "vocab.txt").read_text() + "z\n")
        code = run_cli(
            command, "--ckpt", str(trained / "model.ckpt"),
            "--manifest", str(corpus_dir / "manifest.tsv"), "--vocab", str(vocab),
        )
        assert code == 2
        msg = one_data_error(capsys.readouterr().err)
        assert str(trained / "model.ckpt") in msg and "vocabulary does not match" in msg

    @pytest.mark.parametrize("key,value", [
        ("d_model", 20000), ("vocab_size", 10**8), ("encoder_layers", 10**7),
    ])
    def test_inflated_sidecar_is_rejected_before_allocation(
        self, trained, corpus_dir, tmp_path, key, value
    ):
        import resource

        def cap_address_space():  # a 2 GB cap, so an allocation it sizes cannot reach the machine
            resource.setrlimit(resource.RLIMIT_AS, (2 * 1024**3, 2 * 1024**3))

        sidecar = json.loads((trained / "model.ckpt.json").read_text())
        sidecar["model_config"][key] = value
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes((trained / "model.ckpt").read_bytes())
        (tmp_path / "model.ckpt.json").write_text(json.dumps(sidecar))
        done = run_cli_process(
            "decode", "--ckpt", str(ckpt), "--manifest", str(corpus_dir / "manifest.tsv"),
            "--vocab", str(corpus_dir / "vocab.txt"), cwd=tmp_path, preexec_fn=cap_address_space,
        )
        assert done.returncode == 2, done.stderr
        assert str(ckpt) in one_data_error(done.stderr)

    def test_train_on_too_short_synth_utterance(self, base_config, tmp_path, capsys):
        synth = {"vocab_size": 4, "count": 20, "min_len": 1, "max_len": 2,
                 "min_frames_per_token": 1, "max_frames_per_token": 2, "feature_dim": 4}
        _, corpus = synth_corpus(SynthConfig(**synth))
        short = [u.utt_id for u in corpus if u.num_frames < 4]
        assert short  # the model subsamples by 4
        payload = json.loads(base_config.read_text())
        payload["data"] = {"synth": synth}
        config = tmp_path / "run.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(config), "--out", str(out)) == 2
        assert f"utterance {short[0]}:" in one_data_error(capsys.readouterr().err)
        assert not out.exists()

    def test_eval_hyp_manifest_that_repeats_an_id(self, corpus_dir, tmp_path, capsys):
        manifest = edited_manifest(corpus_dir, tmp_path, 2, lambda row: ["synth-00000", *row[1:]])
        rows = [l.split("\t") for l in manifest.read_text().splitlines()]
        hyp = tmp_path / "hyp.tsv"
        hyp.write_text("".join(f"{r[0]}\t0.0\t{' '.join(r[3])}\n" for r in rows))
        assert run_cli("eval", "--hyp", str(hyp), "--manifest", str(manifest)) == 2
        msg = one_data_error(capsys.readouterr().err)
        assert f"{manifest}:2:" in msg and "synth-00000" in msg

    def test_eval_hyp_file_that_repeats_an_id(self, corpus_dir, tmp_path, capsys):
        manifest = corpus_dir / "manifest.tsv"
        rows = [l.split("\t") for l in manifest.read_text().splitlines()]
        lines = [f"{r[0]}\t0.0\t{' '.join(r[3])}\n" for r in rows]
        hyp = tmp_path / "hyp.tsv"
        hyp.write_text("".join(lines) + f"{rows[1][0]}\t0.0\t\n")  # a second, empty line for row 1
        assert run_cli("eval", "--hyp", str(hyp), "--manifest", str(manifest)) == 2
        msg = one_data_error(capsys.readouterr().err)
        assert f"{hyp}:{len(rows) + 1}:" in msg and rows[1][0] in msg and msg.endswith(" line 2")

    def test_train_manifest_with_mixed_feature_widths(
        self, base_config, corpus_dir, tmp_path, capsys
    ):
        wide = tmp_path / "wide.feat"

        def widen(row):
            write_features(wide, np.zeros((int(row[2]), 8), dtype=np.float32))
            return [row[0], str(wide), *row[2:]]

        manifest = edited_manifest(corpus_dir, tmp_path, 5, widen)
        payload = json.loads(base_config.read_text())
        payload["data"]["manifest"] = str(manifest)
        config = tmp_path / "run.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(config), "--out", str(out)) == 2
        assert f"{manifest}:5:" in one_data_error(capsys.readouterr().err)
        assert not out.exists()


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

    def test_two_grid_options_add_up(self, base_config, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--config", str(base_config), "--grid", "method=baseline,embed_fusion",
            "--grid", "alpha=0.3,0.7", "--out", str(out), "--quiet",
        )
        assert code == 0
        assert len([d for d in os.listdir(out) if d.startswith("run_")]) == 4
        assert len((out / "comparison.tsv").read_text().splitlines()) == 5  # header + 4 rows

    @pytest.mark.parametrize("key, raw, section, expected", [
        ("method", "embed_fusion", "fusion", {"method": "embed_fusion"}),
        ("alpha", "0.5", "fusion", {"alpha": 0.5}),
        ("n", "9", "fusion", {"n": 9, "beam_width": 9}),
        ("n", "2", "fusion", {"n": 2, "beam_width": FusionConfig.beam_width}),
        ("t_l", "3", "gating", {"mode": "absolute", "t_l": 3}),
        ("t_r", "0.25", "gating", {"mode": "relative", "t_r": 0.25}),
        ("pretrain", "none", "train", {"pretrain_path": None, "pretrain_selection": None}),
    ])
    def test_grid_point_sets_its_field_and_implied_settings(self, key, raw, section, expected):
        payload = {"gating": {"mode": "relative" if key == "t_l" else "absolute"},
                   "train": {"pretrain_path": "donor.ckpt", "pretrain_selection": "encoder"}}
        run = _apply_grid_point(payload, {key: raw})
        assert {k: run[section][k] for k in expected} == expected
        assert all(type(run[section][k]) is type(v) for k, v in expected.items())

    def test_grid_point_keeps_base_beam_width_and_donor(self):
        payload = {"fusion": {"beam_width": 3}, "train": {"pretrain_path": "donor.ckpt"}}
        run = _apply_grid_point(payload, {"n": "2", "pretrain": "encoder_decoder"})
        assert run["fusion"] == {"beam_width": 3, "n": 2}
        assert run["train"] == {"pretrain_path": "donor.ckpt",
                                "pretrain_selection": "encoder_decoder"}
        with pytest.raises(UsageError, match="needs train.pretrain_path"):
            _apply_grid_point({}, {"pretrain": "encoder"})

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

    def test_epoch_without_reachable_utterance_has_null_ctc_loss(self, base_config, tmp_path,
                                                                 capsys):
        # two frames per token subsample to fewer encoder frames than tokens
        payload = json.loads(base_config.read_text())
        payload["data"] = {"synth": {"vocab_size": 4, "count": 8, "min_len": 3, "max_len": 4,
                                     "min_frames_per_token": 2, "max_frames_per_token": 2,
                                     "feature_dim": 4}}
        config = tmp_path / "run.json"
        config.write_text(json.dumps(payload))
        run_dir = tmp_path / "run"
        assert run_cli("train", "--config", str(config), "--out", str(run_dir), "--quiet") == 0

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        lines = (run_dir / "metrics.jsonl").read_text().splitlines()
        records = [json.loads(line, parse_constant=reject) for line in lines]
        assert [rec["ctc_loss"] for rec in records] == [None, None]
        assert all(" ctc=- " in line for line in (run_dir / "train.log").read_text().splitlines())
        capsys.readouterr()
        assert run_cli("report", "--run", str(run_dir)) == 0
        rows = capsys.readouterr().out.splitlines()[1:3]
        assert [row.split()[2] for row in rows] == ["-", "-"]
        assert ",ctc_loss," not in (run_dir / "loss.csv").read_text()

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

    @pytest.mark.parametrize("flag", ["--seed", "--feature-dim", "--noise"])
    def test_negative_synth_flag_is_data_error(self, tmp_path, capsys, flag):
        assert run_cli("synth", "--out", str(tmp_path / "c"), "--count", "1", flag, "-1") == 2
        assert flag[2:].replace("-", "_") in one_data_error(capsys.readouterr().err)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_synth_noise_is_data_error(self, tmp_path, capsys, value):
        out = tmp_path / "c"
        assert run_cli("synth", "--out", str(out), "--count", "1", "--noise", value) == 2
        assert "noise" in one_data_error(capsys.readouterr().err)
        assert not out.exists()

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
            ("model", "num_heads", 0),
            ("train", "seed", -1),
            ("gating", "t_r", float("nan")),
            ("gating", "t_r", float("inf")),
            ("fusion", "n", -5),
            ("train", "model", {}),
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

    # what the usage error says about each out-of-range value below
    RANGES = {
        "d_model": "must be >= 1",
        "ffn_dim": "must be >= 1",
        "dropout": "must lie in [0, 1)",
        "label_smoothing": "must lie in [0, 1)",
        "beta1": "must lie in [0, 1)",
        "beta2": "must lie in [0, 1)",
        "lr_base": "must be finite and >= 0",
        "adam_eps": "must be finite and > 0",
        "stop_at_train_cer": "must be null or >= 0",
    }

    @pytest.mark.parametrize(
        "key,value",
        [
            ("d_model", 0), ("d_model", -4), ("ffn_dim", 0),
            ("dropout", -0.5), ("dropout", 1.0),
            ("label_smoothing", -1.0), ("label_smoothing", 1.0),
            ("beta1", 1.0), ("beta2", 1.5),
            ("lr_base", -1.0), ("lr_base", float("nan")), ("lr_base", float("inf")),
            ("adam_eps", -1e-9), ("adam_eps", 0.0),
            ("stop_at_train_cer", -5),
        ],
    )
    def test_model_width_below_one_is_usage_error(
        self, base_config, tmp_path, capsys, key, value
    ):
        """A model width below one, or a run value out of its range, fails before ``--out``."""
        payload = json.loads(base_config.read_text())
        section = "model" if key in ModelConfig.__dataclass_fields__ else "train"
        payload[section][key] = value  # num_heads stays 2, which divides both widths
        config = tmp_path / "run.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(config), "--out", str(out)) == 1
        assert f"{key} {self.RANGES[key]}" in one_error(capsys.readouterr().err, "usage")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_negative_seed_flag_is_usage_error(self, base_config, tmp_path, capsys, command):
        argv = [command, "--config", str(base_config), "--seed", "-1"]
        if command == "sweep":
            argv += ["--grid", "method=baseline", "--out", str(tmp_path / "sweep")]
        assert run_cli(*argv) == 1
        assert "seed" in one_error(capsys.readouterr().err, "usage")

    @pytest.mark.parametrize("grid", ["alpha=0.5,1.5", "method=baseline,bogus"])
    def test_sweep_grid_value_out_of_range_is_usage_error(
        self, base_config, tmp_path, capsys, grid
    ):
        out = tmp_path / "sweep"
        code = run_cli("sweep", "--config", str(base_config), "--grid", grid, "--out", str(out))
        assert code == 1
        msg = one_error(capsys.readouterr().err, "usage")
        assert grid.split("=")[0] in msg
        assert not out.exists()  # checked before the first run
        key, values = grid.split("=")
        assert f"grid point {key}={values.split(',')[-1]}: " in msg

    @pytest.mark.parametrize(
        "grid",
        [["--grid", "alpha=0.1", "alpha=0.2"], ["--grid", "alpha=0.1", "--grid", "alpha=0.2"],
         ["--grid", "alpha=0.5,0.5"]],
        ids=["key_in_one_option", "key_across_options", "value_within_key"],
    )
    def test_sweep_grid_repeat_is_usage_error(self, base_config, tmp_path, capsys, grid):
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--config", str(base_config), *grid, "--out", str(out)) == 1
        assert "'alpha'" in one_error(capsys.readouterr().err, "usage")
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["alpha=0.5,0.50", "n=2,02", "t_r=0.1,1e-1", "t_l=3, 3"])
    def test_sweep_grid_value_spelled_twice_is_usage_error(
        self, base_config, tmp_path, capsys, grid
    ):
        out = tmp_path / "sweep"
        code = run_cli("sweep", "--config", str(base_config), "--grid", grid, "--out", str(out))
        assert code == 1
        key = grid.split("=")[0]
        assert f"grid key {key!r} repeats a value" in one_error(capsys.readouterr().err, "usage")
        assert not out.exists()

    def test_sweep_grid_value_not_a_number_is_usage_error(self, base_config, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--config", str(base_config), "--grid", "alpha=0.5,x", "--out", str(out)
        )
        assert code == 1
        assert "'x'" in one_error(capsys.readouterr().err, "usage")
        assert not out.exists()  # checked before the first run

    @pytest.mark.parametrize(
        "text",
        [
            '{"epoch": 1, "joint_loss": 2.0\n',
            json.dumps({"epoch": 1, "ctc_loss": 2.0, "att_loss": 1.0, "blanks_inserted": 0}),
            json.dumps({"epoch": 1, "joint_loss": 2.0, "att_loss": 1.0, "blanks_inserted": 0}),
        ],
        ids=["not_json", "no_joint_loss", "no_ctc_loss"],
    )
    def test_malformed_metrics_record_is_data_error(self, tmp_path, capsys, text):
        metrics = tmp_path / "metrics.jsonl"
        metrics.write_text(text)
        assert run_cli("report", "--metrics", str(metrics)) == 2
        assert f"{metrics}:1:" in one_data_error(capsys.readouterr().err)

    @pytest.mark.parametrize("key", ["epoch", "blanks_inserted"])
    def test_boolean_in_integer_metrics_field_is_data_error(self, tmp_path, capsys, key):
        record = {"epoch": 1, "joint_loss": 2.0, "ctc_loss": 1.5, "att_loss": 1.0,
                  "blanks_inserted": 0, key: True}
        metrics = tmp_path / "metrics.jsonl"
        metrics.write_text(json.dumps(record) + "\n")
        assert run_cli("report", "--metrics", str(metrics)) == 2
        assert f"{metrics}:1: missing or mistyped {key}" in one_data_error(capsys.readouterr().err)
        assert not (tmp_path / "blanks.csv").exists()

    @pytest.mark.parametrize("key", ["joint_loss", "ctc_loss", "att_loss", "train_cer"])
    def test_integer_in_float_metrics_field_is_read(self, tmp_path, capsys, key):
        record = {"epoch": 1, "joint_loss": 2.5, "ctc_loss": 1.5, "att_loss": 1.0,
                  "blanks_inserted": 0, "train_cer": 0.5, key: 2}
        metrics = tmp_path / "metrics.jsonl"
        metrics.write_text(json.dumps(record) + "\n")
        assert run_cli("report", "--metrics", str(metrics)) == 0
        assert "2.0000" in capsys.readouterr().out.splitlines()[1]

    @pytest.mark.parametrize("key", ["joint_loss", "ctc_loss", "att_loss", "train_cer"])
    def test_boolean_in_float_metrics_field_is_data_error(self, tmp_path, capsys, key):
        record = {"epoch": 1, "joint_loss": 2.5, "ctc_loss": 1.5, "att_loss": 1.0,
                  "blanks_inserted": 0, key: False}
        metrics = tmp_path / "metrics.jsonl"
        metrics.write_text(json.dumps(record) + "\n")
        assert run_cli("report", "--metrics", str(metrics)) == 2
        assert f"{metrics}:1: missing or mistyped {key}" in one_data_error(capsys.readouterr().err)

    @pytest.mark.parametrize("source",["manifest", "text", "align_ref", "align_hyp"])
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
