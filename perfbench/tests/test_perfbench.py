"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

Run from the repository root.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


@pytest.mark.parametrize("name", ["extract_small", "analyze_cohort", "metrics_cohort"])
def test_same_seed_gives_identical_inputs(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    digests = []
    for k in range(2):
        directory = tmp_path / f"copy{k}"
        directory.mkdir()
        workload.write_inputs(7, directory)
        digests.append(gate.digest_tree(directory))
    other = tmp_path / "other"
    other.mkdir()
    workload.write_inputs(8, other)
    assert digests[0] == digests[1]
    assert gate.digest_tree(other) != digests[0]


def test_small_cohort_has_one_of_each_degenerate_roi():
    cohort = inputs.small_cohort(3, 38)
    voxels = sorted(int(p.mask.sum()) for p in cohort)
    assert len(cohort) == 40 and len({p.pid for p in cohort}) == 40
    assert voxels[0] == 1
    constant = [p for p in cohort if p.index in inputs.SMALL_CONSTANT]
    assert len(constant) == 1 and len(set(constant[0].values[constant[0].mask])) == 1


def test_self_time_on_hand_built_tree():
    spans = [
        Span(0, "root", None, 0.0, 10.0),
        Span(1, "a", 0, 1.0, 4.0),
        Span(2, "b", 0, 3.0, 6.0),    # overlaps a
        Span(3, "a.leaf", 1, 2.0, 3.0),
        Span(4, "late", 0, 9.0, 12.0),  # runs past the end of root
        Span(5, "other_root", None, 20.0, 21.5),
    ]
    # root: 10 minus the union [1, 6] and [9, 10]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 1.5])


def test_tracer_nests_spans_and_restores():
    module = type(sys)("fake_module")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    original_inner = module.inner
    tracer.patch(module, "inner", "inner")
    tracer.patch(module, "outer", "outer")
    assert module.outer(1) == 4
    tracer.restore()
    assert module.inner is original_inner
    outer, inner = sorted(tracer.spans, key=lambda s: s.name != "outer")
    assert inner.parent == outer.sid and outer.parent is None
    assert self_times(tracer.spans)[outer.sid] == outer.duration - inner.duration


def _small_extract(tmp_path: Path) -> tuple[Path, list[str]]:
    """Extract one regular and one single-voxel pool patient in-process."""
    workload = workloads.WORKLOADS["extract_small"]
    cohort = [inputs.small_patient(i) for i in (5, inputs.SMALL_SINGLE_VOXEL[0])]
    inputs.write_image_cohort(tmp_path, cohort, workload.networks)
    inputs.write_config(tmp_path, workload.config)
    code, _, _ = run.in_process(workload.argv("out.csv", 1), tmp_path)
    assert code == 0
    return tmp_path / "out.csv", [p.pid for p in cohort]


def test_digest_gate_catches_one_byte_change(tmp_path):
    out, pids = _small_extract(tmp_path)
    reference = gate.load_reference()["extract_small"]
    data = out.read_bytes()
    assert gate.check_blocks(data, pids, reference) == []
    position = data.index(b"\n") + 40
    changed = data[:position] + bytes([data[position] ^ 1]) + data[position + 1:]
    assert gate.check_blocks(changed, pids, reference)
    assert gate.check_blocks(data, pids[::-1], reference)


def test_analyze_gate_rederives_groups(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "ANALYZE_PATIENTS", 60)
    workload = workloads.WORKLOADS["analyze_cohort"]
    workload.write_inputs(1, tmp_path)
    code, _, _ = run.in_process(workload.argv("groups.csv", 1), tmp_path)
    assert code == 0
    groups, summary = tmp_path / "groups.csv", tmp_path / "groups.summary.json"
    assert gate.check_analyze(tmp_path, groups, summary, workloads.ANALYZE_THRESHOLD) == []
    lines = groups.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = format(float(cells[2]) + 1e-6, ".9g")
    groups.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    assert gate.check_analyze(tmp_path, groups, summary, workloads.ANALYZE_THRESHOLD)


def test_probes_attribute_spans_and_count(tmp_path):
    tracer = Tracer()
    probes = layers.ProgramProbes(tracer)
    probes.install()
    try:
        _, pids = _small_extract(tmp_path)
    finally:
        tracer.restore()
    import transfid.radiomics.texture as texture

    assert texture.glrlm_matrices.__name__ == "glrlm_matrices"
    assert not hasattr(texture.glrlm_matrices, "__wrapped__")
    names = {s.name for s in tracer.spans}
    assert {"analysis.patient", "radiomics.matrices.glrlm", "radiomics.vector.validate"} <= names
    extracts = [s for s in tracer.spans if s.name == "radiomics.extract.self"]
    assert {(s.patient, s.source) for s in extracts} == {
        (pid, source) for pid in pids for source in ("original_mri", "netA", "netB")
    }
    values = layers.invocation_metrics(tracer.spans, probes.counts)
    assert values["radiomics.extract.families_attempted"] == 6 * 9
    assert values["radiomics.matrices.roi_voxels"] == 3 * (2744 + 1)
    assert values["nifti.bytes_read"] == sum(p.stat().st_size for p in tmp_path.glob("*.nii"))
    assert values["radiomics.matrices.glrlm_s"] > 0


def test_speed_factor_normalises_to_the_reference():
    ref = speed.REFERENCE_CHUNK_S
    samples = [(1.0, ref), (2.0, 2 * ref), (3.0, 2 * ref), (4.0, ref)]
    # a phase at half speed: chunks take twice as long, so times count half
    assert speed.factor(samples, 1.5, 3.5) == pytest.approx(0.5)
    assert speed.factor(samples, 0.0, 5.0) == pytest.approx(1 / 1.5)
    # shorter than a probe period: the nearest sample on each side
    assert speed.factor(samples[::-1], 3.2, 3.4) == pytest.approx(1 / 1.5)
    with pytest.raises(ValueError):
        speed.factor([], 0.0, 1.0)


def test_speed_probes_sample_and_stop(tmp_path):
    with speed.SpeedProbes(speed.pick_cpus(1), tmp_path) as probes:
        procs = list(probes.procs)
        assert probes.factor(0.0, float("inf")) > 0
    assert all(proc.returncode is not None for proc in procs)


def test_more_stops_before_the_run_would_overrun():
    assert run.more(1, 2, 50.0, 30.0, 15.0)
    assert run.more(2, 2, 7.0, 7.0, 15.0)
    assert not run.more(2, 2, 9.0, 7.0, 15.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert spec["paths"] == ["perfbench"]
