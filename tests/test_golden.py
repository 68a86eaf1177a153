"""Golden outputs of the Monte-Carlo and sampling layers.

The values below were captured from the earlier implementation (two
Monte-Carlo engines, two record samplers, thread pools run with one
worker) and pin the current single sampler path to the same bytes: MC
numerators, denominators and scores as ``float.hex``, and SHA-256 prefixes
of sampled records, feature matrices, dataset files and a soundness-sweep
report.  Only ``std_error`` is not pinned, since its method changed from a
bootstrap to the delta method.  The numbers depend on numpy's random
streams and vectorized math (captured with numpy 2.4 on x86-64).
"""

import hashlib
import json

import numpy as np
import pytest

from disentlab import metrics, supervision, verify, worlds
from disentlab.continuous import rotation_world
from disentlab.indexset import IndexSet
from disentlab.metrics import EvaluationTarget
from disentlab.supervision import SupervisionSpec

MC_GOLDEN = {
    "enc-sparse/consistency": ("0x0.0p+0", "0x1.39fbe76c8b439p+0", "0x1.0000000000000p+0"),
    "enc-sparse/restrictiveness": ("0x1.f5a858793dd98p-3", "0x1.705532617c1bep-2", "0x1.46ac170f28c7ep-2"),
    "enc/consistency": ("0x1.e52bd3c361134p-2", "0x1.e4189374bc6a8p-2", "-0x1.231df903b5a00p-9"),
    "enc/restrictiveness": ("0x1.ed4fdf3b645a2p-2", "0x1.2916872b020c5p+0", "0x1.2b750681ee21cp-1"),
    "gen-sparse/consistency": ("0x1.56a161e4f7660p-2", "0x1.ff7ced916872bp-2", "0x1.520da2015520ep-2"),
    "gen-sparse/restrictiveness": ("0x0.0p+0", "0x1.3a5119ce075f7p+0", "0x1.0000000000000p+0"),
    "gen/consistency": ("0x1.e37b4a2339c0fp-2", "0x1.27a43fe5c91d1p+0", "0x1.2eac654e0ffb8p-1"),
    "gen/restrictiveness": ("0x1.f573eab367a10p-2", "0x1.f4a2339c0ebeep-2", "-0x1.acf4024dcf800p-10"),
    "rot-enc-angle/consistency": ("0x0.0p+0", "0x1.abddb2f301058p+2", "0x1.0000000000000p+0"),
    "rot-enc-angle/restrictiveness": ("0x1.fc7a26abb6714p-1", "0x1.fe54c3b45add6p-1", "0x1.dc2a5e0d2cf00p-9"),
    "rot-enc/consistency": ("0x1.01249137a4b67p-1", "0x1.ffcbf27999d60p-2", "-0x1.3eb861fd17800p-8"),
    "rot-enc/restrictiveness": ("0x1.ffecd9edaac74p-3", "0x1.cbab8c41f2c3dp+2", "0x1.ee2e5e59fe2e8p-1"),
    "rot-gen/consistency": ("0x0.0p+0", "0x1.abddb2f301058p+2", "0x1.0000000000000p+0"),
    "rot-gen/restrictiveness": ("0x1.fc7a26abb6714p-1", "0x1.ffff0add6da5ep-1", "0x1.c272f08604d00p-8"),
}

RECORDS_GOLDEN = {
    "model/change:2": "a92701889d138faf",
    "model/label:1,2": "e8e656d02690017d",
    "model/rank:2": "f0264835541d23b9",
    "model/share:1": "55dba359d6dde502",
    "oracle/change:2": "bc6dba31ee6f8509",
    "oracle/label:1,2": "1419300e268a0cd3",
    "oracle/rank:2": "dcaa4e27d308bba9",
    "oracle/share:1": "f412c64ec8b58578",
    "rot/change:2": "784b51b7ef9d3828",
    "rot/label:1,2": "7612383ca44f9762",
    "rot/rank:2": "14f1c4e529db9bd5",
    "rot/share:1": "5d7d850e1b5bf335",
    "world/change:2": "2d404dd253857aef",
    "world/label:1,2": "0fcae46b0c14281b",
    "world/rank:2": "b481ed96977e652b",
    "world/share:1": "a8a99714277f36f5",
}

FEATURES_GOLDEN = {
    "oracle/change:2": "c3548fa2f0f74b35",
    "oracle/label:1,2": "35e7b0c634808da7",
    "oracle/rank:2": "20ea0c73d49371a9",
    "oracle/share:1": "aef69458d25115ae",
    "rot/change:2": "87dba86c6e65caa4",
    "rot/label:1,2": "89a4f1e0fe24e8b9",
    "rot/rank:2": "0cec6f9d06cd4dd7",
    "rot/share:1": "c0aa2c6be3c167f9",
}

DATASET_GOLDEN = {
    "model/change:2": "52fae7165573068d",
    "model/label:1,2": "faf095d5bb5407b4",
    "model/rank:2": "5c98884b75facb94",
    "model/share:1": "8fcaf431f7a2ce6e",
    "oracle/change:2": "1f554267061c1cc9",
    "oracle/label:1,2": "b51037ebe4f89052",
    "oracle/rank:2": "665ae94c735a5230",
    "oracle/share:1": "c7df443ed29b55c2",
    "rot/change:2": "af8eb634ab211d7c",
    "rot/label:1,2": "d22b101dc4d7ccec",
    "rot/rank:2": "0022dee3b617110f",
    "rot/share:1": "30aa13d340442501",
    "world/change:2": "858d01a85ab30d0f",
    "world/label:1,2": "e6af24f07a8ab39a",
    "world/rank:2": "62cdab89c627fced",
    "world/share:1": "85625842b7233043",
}

# Two-sample statistics of the rotation candidate against its oracle (seed 0,
# 20k samples), captured before the permutation null was drawn from fair
# coins: the statistic reads the samples and the grid, never the null draw.
MATCH_STAT_GOLDEN = {
    "label:1": "0x1.08abcb1f78964p-13",
    "share:1": "0x1.b65e2071ba827p-14",
    "label:2": "0x1.eff733d397166p-7",
    "share:2": "0x1.157d6ab9dd30fp-10",
}

# (threshold, p-value) of the same checks, captured from the fair-coin null
# in blocks: they pin every split the null draws.
MATCH_NULL_GOLDEN = {
    "label:1": ("0x1.435e2a80fdae7p-13", "0x1.978feb9f34381p-4"),
    "share:1": ("0x1.d04fa63ff70f2p-14", "0x1.460cbc7f5cf9ap-3"),
    "label:2": ("0x1.19d02d20ecd6fp-13", "0x1.460cbc7f5cf9ap-8"),
    "share:2": ("0x1.bf5f57d29a842p-14", "0x1.460cbc7f5cf9ap-8"),
}

# The two rotation checks of ``run_counterexample_suite(seed=0, samples=20000)``:
# the match check's p-value, the unrestricted check's restrictiveness score
# and its detail text.
SUITE_ROTATION_GOLDEN = {
    "rotation-distribution-match": ("0x1.978feb9f34381p-4", ""),
    "rotation-consistent-unrestricted": (
        "0x1.f5310e689f3c0p-7", "consistency=1.0000+-0.0000 restrictiveness=0.0153+-0.0091"
    ),
}

SPECS = ("label:1,2", "share:1", "change:2", "rank:2")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def discrete_pair(seed, cards, corr):
    w = worlds.random_world(seed, 3, cards, corr)
    return w, worlds.CandidateModel(w, np.random.default_rng(seed).permutation(w.support_size))


def mc_targets():
    _, model = discrete_pair(7, (2, 3, 2), 0.5)
    _, sparse = discrete_pair(8, (3, 2, 3), 1.0)  # diagonal mass only: sparse support
    _, rot = rotation_world()
    return {
        "gen": (EvaluationTarget.generator_based(model), (1, 2)),
        "enc": (EvaluationTarget.encoder_based(model), (3,)),
        "gen-sparse": (EvaluationTarget.generator_based(sparse), (2,)),
        "enc-sparse": (EvaluationTarget.encoder_based(sparse), (1, 3)),
        "rot-gen": (EvaluationTarget.generator_based(rot), (1,)),
        "rot-enc": (EvaluationTarget.encoder_based(rot), (2,)),
        "rot-enc-angle": (EvaluationTarget.encoder_based(rot), (1,)),
    }


def samplers():
    world, model = discrete_pair(7, (2, 3, 2), 0.5)
    oracle, rot = rotation_world()
    return {"world": world, "model": model, "oracle": oracle, "rot": rot}


@pytest.mark.parametrize("name", sorted(mc_targets()))
@pytest.mark.parametrize("kind", ["consistency", "restrictiveness"])
def test_mc_scores_golden(name, kind):
    target, members = mc_targets()[name]
    score = getattr(metrics, f"normalized_{kind}")
    rep = score(target, IndexSet.of(members, 3), "mc", samples=20000, seed=11)
    got = (rep.numerator.hex(), rep.denominator.hex(), rep.score.hex())
    assert got == MC_GOLDEN[f"{name}/{kind}"]


def test_sampled_records_and_datasets_golden(tmp_path):
    for label, obj in samplers().items():
        for text in SPECS:
            key = f"{label}/{text}"
            spec = SupervisionSpec.parse(text)
            records = supervision.sample_records(obj, spec, 5, 300)
            assert digest(repr(records).encode()) == RECORDS_GOLDEN[key], key
            path = tmp_path / "d.jsonl"
            supervision.write_dataset(path, obj, spec, 5, 50)
            assert digest(path.read_bytes()) == DATASET_GOLDEN[key], key


def test_sampled_features_golden():
    for label in ("oracle", "rot"):
        obj = samplers()[label]
        for text in SPECS:
            key = f"{label}/{text}"
            features = supervision.sample_features(obj, SupervisionSpec.parse(text), np.random.default_rng(5), 300)
            assert digest(features.tobytes()) == FEATURES_GOLDEN[key], key


def test_soundness_sweep_golden():
    report = verify.soundness_sweep(seed=3, trials=40)
    assert report.facts_checked == 200 and report.violations == []
    assert digest(json.dumps(report.to_dict(), sort_keys=True).encode()) == "3a0e0cc8c093e75b"


@pytest.mark.parametrize("text", sorted(MATCH_STAT_GOLDEN))
def test_match_statistics_golden(text):
    oracle, rot = rotation_world()
    spec = SupervisionSpec.parse(text)
    result = metrics.mc_match_check(rot, oracle, spec, seed=0, samples=20000)
    assert result.statistic.hex() == MATCH_STAT_GOLDEN[text]
    assert (result.threshold.hex(), result.p_value.hex()) == MATCH_NULL_GOLDEN[text]
    assert metrics.mc_match_check(rot, oracle, spec, seed=0, samples=20000) == result


def test_counterexample_suite_rotation_golden():
    checks = {c.name: c for c in verify.run_counterexample_suite(seed=0, samples=20000).checks}
    for name, (statistic, detail) in SUITE_ROTATION_GOLDEN.items():
        assert (checks[name].statistic.hex(), checks[name].detail) == (statistic, detail), name
