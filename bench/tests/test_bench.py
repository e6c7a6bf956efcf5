"""Tests of the benchmark harness itself (not of nfc).

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import KNOWN_RESONANCE_CEILING, WORKLOADS, resonant_R  # noqa: E402


@pytest.fixture(scope="module")
def nfc():
    return run.import_nfc()


def _span(tr: Tracer, name: str, start: float, end: float, parent: int) -> int:
    tr.names.append(name)
    tr.starts.append(start)
    tr.ends.append(end)
    tr.parents.append(parent)
    tr.ops.append(0)
    return len(tr.names) - 1


def test_self_time_on_synthetic_nested_spans():
    tr = Tracer()
    a = _span(tr, "A", 0.0, 10.0, -1)
    _span(tr, "B", 1.0, 4.0, a)
    c = _span(tr, "C", 5.0, 9.0, a)
    _span(tr, "A", 6.0, 7.0, c)          # A nested under itself, through C
    assert tr.self_times() == pytest.approx([3.0, 3.0, 3.0, 1.0])
    assert tr.self_time("A") == pytest.approx(4.0)
    assert tr.inclusive("A") == pytest.approx(10.0)      # the nested A is counted once
    assert tr.inclusive(("B", "C")) == pytest.approx(7.0)
    assert tr.child_calls("C", "A") == 1
    assert tr.calls("A") == 2


def _snapshot():
    mods = {k: m for k, m in sys.modules.items() if k == "nfc" or k.startswith("nfc.")}
    attrs = {(k, a): v for k, m in mods.items() for a, v in vars(m).items()}
    classes = {(k, a): dict(vars(v)) for (k, a), v in attrs.items() if isinstance(v, type)}
    return attrs, classes


def test_wrappers_fully_removed(nfc):
    before_attrs, before_classes = _snapshot()
    tr = Tracer()
    tr.install()
    try:
        assert nfc.normalizer.transform is nfc.surface.transform is nfc.transform
        assert nfc.normalizer.transform is not before_attrs[("nfc.surface", "transform")]
        assert nfc.scalar.kpoly_eval is not before_attrs[("nfc.scalar", "kpoly_eval")]
        jet = nfc.jet7(nfc.gen_cd(0, -24, 9))
        nfc.char_poly(jet)
        nfc.normalize(nfc.gen_quadric(9), 3)
        patched = tr.patched()
        assert patched
    finally:
        tr.remove()
    assert tr.calls("scalar.kpoly_eval") > 0
    assert tr.calls("surface.transform") > 0
    assert tr.counts["scalar.arith"] > 0
    after_attrs, after_classes = _snapshot()
    assert after_attrs.keys() == before_attrs.keys()
    for key, value in before_attrs.items():
        assert after_attrs[key] is value, key
    for key, members in before_classes.items():
        for attr, value in members.items():
            assert after_classes[key][attr] is value, (key, attr)
    assert tr.patched() == []


def test_corrupted_reference_digest_is_an_error(nfc):
    workload = WORKLOADS["charpoly"]()
    refs = run.load_references("charpoly")
    small = next(i for i in range(100) if resonant_R(i) <= 5000)
    large = next(i for i in range(100) if resonant_R(i) > KNOWN_RESONANCE_CEILING)
    keys = ("random/0", "random/1", f"resonant/{small}", f"resonant/{large}")
    items = [(key, workload.build(nfc, key)) for key in keys]
    outputs = [workload.run(nfc, item) for _, item in items]
    clean = run.Verdict(workload, nfc, items, refs)
    clean(outputs)
    # the large-R jet hits the known resonance ceiling: failed, but not unexpected
    assert (clean.attempted, clean.failed, clean.known, clean.unexpected) == (4, 1, 1, [])
    corrupt = dict(refs)
    digest, roots = refs["random/1"]
    corrupt["random/1"] = [digest[::-1] if digest != digest[::-1] else "0" * len(digest), roots]
    bad = run.Verdict(workload, nfc, items, corrupt)
    bad(outputs)
    assert (bad.failed, bad.known) == (2, 1)
    assert len(bad.unexpected) == 1 and bad.unexpected[0].startswith("random/1:")


def test_corrupted_normalize_digest_is_an_error(nfc):
    workload = WORKLOADS["families"]()
    refs = run.load_references("families")
    items = [("quadric", workload.build(nfc, "quadric"))]
    outputs = [workload.run(nfc, items[0][1])]
    for reference, failed in ((refs, 0), ({"quadric": refs["quadric"][::-1]}, 1)):
        verdict = run.Verdict(workload, nfc, items, reference)
        verdict(outputs)
        assert (verdict.attempted, verdict.failed, verdict.known) == (1, failed, 0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(nfc, name):
    workload = WORKLOADS[name]()

    def text(seed):     # a cli input's text holds its spec files too
        return "\n".join(f"{key} {workload.describe(item)}"
                         for key, item in workload.inputs(nfc, seed)).encode()

    first = text(5)
    assert text(5) == first
    if name != "families":       # families vary only in order
        assert text(6) != first


def test_missing_program_exits_nonzero(tmp_path):
    """In a directory with only the benchmark, the run fails without a result."""
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "charpoly", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_setup_sample_restores_the_run_modules(nfc):
    before = run.nfc_modules()
    assert run.setup_sample(WORKLOADS["families"](), 1) > 0
    after = run.nfc_modules()
    assert after.keys() == before.keys()
    assert all(after[key] is module for key, module in before.items())
