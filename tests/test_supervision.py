import json
import math
from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from disentlab import (
    CandidateModel,
    DiscreteWorld,
    SupervisionSpec,
    augmented_table,
    random_world,
    random_world,
    read_dataset,
    rotation_world,
    sample_records,
    tables_match,
    uniform_world,
    write_dataset,
)
from disentlab.errors import (
    ArityMismatch,
    KindMismatch,
    SupervisionError,
    SupportTooLarge,
    UnorderedFactorForRank,
)
from disentlab import supervision
from disentlab.supervision import MATCH_PAIRING, RANK_PAIRING, RESTRICTED_LABELING, row_keys, sample_features
from disentlab.verify import battery_specs, theorem_battery
from reference_tables import GROUP_MASS_EDGE, TOLERANCE_EDGE, reference_match, reference_table


def spec(kind, *indices):
    return SupervisionSpec(kind, tuple(indices))


# -- spec canonicalization -------------------------------------------------------


def test_share_canonicalizes_to_match():
    kind, I = spec("share-pairing", 1).canonical(3)
    assert kind == MATCH_PAIRING and I.members() == (1,)


def test_change_canonicalizes_to_complement_match():
    kind, I = spec("change-pairing", 1).canonical(3)
    assert kind == MATCH_PAIRING and I.members() == (2, 3)


def test_rank_requires_single_index():
    with pytest.raises(SupervisionError):
        spec("rank-pairing", 1, 2)


@pytest.mark.parametrize(
    "kind, indices, message",
    [("bogus", (1,), "unknown supervision kind"),
     ("share-pairing", (), "needs at least one factor index"),
     ("change-pairing", (), "needs at least one factor index")],
    ids=["unknown-kind", "share-no-index", "change-no-index"],
)
def test_invalid_spec_rejected(kind, indices, message):
    with pytest.raises(SupervisionError, match=message):
        SupervisionSpec(kind, indices)


@pytest.mark.parametrize("index", [1.7, 2.0, "2", True, None], ids=["fraction", "float", "string", "bool", "none"])
def test_non_integer_index_rejected(index):
    """An index that is not an integer is refused, not cast: 1.7, "2" and
    True used to become share:1, share:2 and share:1."""
    with pytest.raises(SupervisionError, match=f"factor index {index!r} is not an integer"):
        SupervisionSpec("share-pairing", (index,))


def test_numpy_integer_index_kept_as_int():
    s = SupervisionSpec("share-pairing", (np.int64(2), 1))
    assert s.indices == (1, 2) and all(type(i) is int for i in s.indices)
    assert s.to_string() == "share:1,2"


def test_exact_table_needs_a_discrete_object():
    _, cand = rotation_world()
    with pytest.raises(SupervisionError, match="exact tables need a discrete world or model"):
        augmented_table(cand, spec("share-pairing", 1))


def test_rank_requires_ordered_factor(world22):
    w = uniform_world((2, 2))
    unordered = type(w)(w.cards, w.prior, w.gen, ordered=(True, False))
    with pytest.raises(UnorderedFactorForRank):
        augmented_table(unordered, spec("rank-pairing", 2))


def test_indices_validated_against_arity(world22):
    with pytest.raises(ArityMismatch):
        augmented_table(world22, spec("share-pairing", 3))


def test_exact_table_support_cap(monkeypatch):
    """Above the cap the table builder refuses before it groups a row or
    allocates a table, for a world and for a model on it."""
    world = uniform_world((2,) * 11)
    assert world.support_size == 2 * supervision._TABLE_SUPPORT_CAP

    def unreachable(*args):
        raise AssertionError("a table was built above the cap")

    monkeypatch.setattr(supervision, "row_keys", unreachable)
    monkeypatch.setattr(supervision, "dense_table", unreachable)
    model = CandidateModel.identity(world)
    cases = ((world, spec("rank-pairing", 1)), (model, spec("share-pairing", 2)),
             (world, spec("restricted-labeling", 3)))
    for obj, s in cases:
        with pytest.raises(SupportTooLarge, match="support 2048 exceeds the exact-table cap 1024"):
            augmented_table(obj, s)


def test_exact_table_support_cap_is_inclusive(world22, monkeypatch):
    monkeypatch.setattr(supervision, "_TABLE_SUPPORT_CAP", world22.support_size)
    assert augmented_table(world22, spec("share-pairing", 1)).table.shape == (4, 4)
    with pytest.raises(SupportTooLarge):
        augmented_table(uniform_world((2, 3)), spec("share-pairing", 1))


def test_spec_string_round_trip():
    for s in ("label:1,2", "share:1", "change:2", "match:1,3", "rank:1"):
        assert SupervisionSpec.parse(s).to_string() == s
    for bad in ("bogus:1", "share:\u0662", "label:1,\u0663", "share:-1"):
        with pytest.raises(SupervisionError):
            SupervisionSpec.parse(bad)


# -- exact tables ----------------------------------------------------------------------


def test_share_pairing_uniform22_masses(world22):
    table = augmented_table(world22, spec("share-pairing", 1))
    assert len(table.mass) == 8
    assert all(abs(p - 0.125) <= 1e-12 for p in table.mass.values())


def test_rank_pairing_tie_convention(world22):
    table = augmented_table(world22, spec("rank-pairing", 1))
    y1 = sum(p for (_, _, y), p in table.mass.items() if y == 1)
    assert abs(y1 - 0.75) <= 1e-12  # ties count as y = 1


def test_identity_model_tables_equal_oracle(world22):
    model = CandidateModel.identity(world22)
    for s in (spec("restricted-labeling", 1), spec("share-pairing", 2), spec("rank-pairing", 1)):
        assert tables_match(augmented_table(model, s), augmented_table(world22, s))


def test_xor_candidate_matches_labeling_not_share2(world22, xor_model):
    lab = spec("restricted-labeling", 1)
    assert tables_match(augmented_table(xor_model, lab), augmented_table(world22, lab))
    sh2 = spec("share-pairing", 2)
    assert not tables_match(augmented_table(xor_model, sh2), augmented_table(world22, sh2))


def test_change_equals_match_on_complement(world22):
    w3 = uniform_world((2, 2, 2))
    a = augmented_table(w3, spec("change-pairing", 2))
    b = augmented_table(w3, spec("match-pairing", 1, 3))
    assert tables_match(a, b)


def test_kind_mismatch_raises(world22):
    a = augmented_table(world22, spec("share-pairing", 1))
    b = augmented_table(world22, spec("share-pairing", 2))
    with pytest.raises(KindMismatch):
        tables_match(a, b)


def test_tables_of_different_worlds_raise():
    a = augmented_table(uniform_world((2, 2)), spec("share-pairing", 1))
    b = augmented_table(random_world(3, 2, [2, 2], 0.0), spec("share-pairing", 1))
    assert a.axes != b.axes
    with pytest.raises(KindMismatch):
        tables_match(a, b)


def test_mass_view_is_read_only(world22):
    table = augmented_table(world22, spec("restricted-labeling", 1))
    with pytest.raises(TypeError):
        table.mass[(0, (0,))] = 1.0
    with pytest.raises(ValueError):
        table.table[0, 0] = 1.0


# pair masses 1e-170 * 1e-170 underflow to 0.0; their outcomes must keep a key
UNDERFLOW = DiscreteWorld((2, 2), [[1e-170, 1e-170], [1e-170, 1.0 - 3e-170]], np.arange(4))


def _assert_tables_equal_reference(world, perms):
    """The dense table's mass view equals the dictionary-loop reference key
    for key and float.hex for float.hex, and tables_match gives the
    reference verdict, for every battery spec and bijection."""
    for s in battery_specs(world):
        oracle, oracle_ref = augmented_table(world, s), reference_table(world, s)
        for perm in perms:
            model = CandidateModel(world, perm)
            table, ref = augmented_table(model, s), reference_table(model, s)
            assert set(table.mass) == set(ref), (world, s, perm)
            assert all(table.mass[k].hex() == ref[k].hex() for k in ref), (world, s, perm)
            verdict = tables_match(table, oracle)
            assert verdict == reference_match(ref, oracle_ref), (world, s, perm)


@pytest.mark.parametrize("seed", [0, 11, 13])
def test_tables_equal_reference_on_battery(seed):
    rng = np.random.default_rng(seed)
    for world in theorem_battery(6, seed):
        m = world.support_size
        _assert_tables_equal_reference(world, [np.arange(m)] + [rng.permutation(m) for _ in range(3)])


@pytest.mark.parametrize("world", [TOLERANCE_EDGE, GROUP_MASS_EDGE, UNDERFLOW],
                         ids=["tolerance-edge", "group-mass-edge", "underflow"])
def test_tables_equal_reference_over_all_bijections(world):
    _assert_tables_equal_reference(world, list(permutations(range(world.support_size))))


def test_row_keys_equal_unique_rows_on_battery():
    """Group ids and labels equal ``np.unique(..., axis=0)``'s for every
    index set of every battery world, the empty set included."""
    for world in theorem_battery(6):
        for bits in range(1 << world.n):
            cols = [c for c in range(world.n) if bits >> c & 1]
            labels, inverse = np.unique(world.support[:, cols], axis=0, return_inverse=True)
            for kind in ("restricted-labeling", MATCH_PAIRING):
                keys, got = row_keys(world, kind, cols)
                assert keys.tolist() == inverse.reshape(-1).tolist(), (world, cols)
                assert got.shape == labels.shape and got.tolist() == labels.tolist(), (world, cols)
            if cols:
                keys, got = row_keys(world, RANK_PAIRING, cols[:1])
                assert got is None and keys.tolist() == world.support[:, cols[0]].tolist()


def test_underflowed_outcomes_keep_their_keys():
    table = augmented_table(UNDERFLOW, spec("rank-pairing", 1))
    assert len(table.mass) == 16 and table.mass[(0, 1, 1)] == 0.0


def test_match_table_is_exchangeable():
    w = random_world(5, 2, [3, 2], 0.5)
    table = augmented_table(w, spec("share-pairing", 1))
    for (x, x2), p in table.mass.items():
        assert abs(table.mass.get((x2, x), 0.0) - p) <= 1e-12


@pytest.mark.parametrize("kind,indices", [
    ("restricted-labeling", (1,)),
    ("share-pairing", (2,)),
    ("change-pairing", (1,)),
    ("rank-pairing", (1,)),
])
def test_tables_marginalize_to_observation_distribution(kind, indices):
    w = random_world(9, 2, [2, 3], 0.6)
    table = augmented_table(w, SupervisionSpec(kind, indices))
    rows = table.table.sum(axis=tuple(range(1, table.table.ndim)))
    marginal = dict(zip(table.axes[0], rows.tolist()))
    expected = {}
    for t, p in zip(w.support, w.support_probs):
        x = int(w.gen[tuple(t)])
        expected[x] = expected.get(x, 0.0) + float(p)
    assert set(marginal) == set(expected)
    assert all(abs(marginal[k] - expected[k]) <= 1e-12 for k in expected)


# -- sampling ---------------------------------------------------------------------------------


def encode_rows(world, ids):
    """e* over an array: the support row of each observation id, -1 for an
    id the world does not produce."""
    encode = {int(v): r for r, v in enumerate(world.obs_ids)}
    return np.vectorize(lambda v: encode.get(int(v), -1), otypes=[np.int64])(ids)


def test_sample_empty_stream(world22):
    assert sample_records(world22, spec("share-pairing", 1), seed=0, count=0) == []


def test_share_samples_share_the_factor(world22):
    records = sample_records(world22, spec("share-pairing", 1), seed=1, count=2000)
    rows = encode_rows(world22, records)
    assert (rows >= 0).all()
    x, x2 = world22.support[rows.T]
    assert (x[:, 0] == x2[:, 0]).all()


def test_rank_samples_satisfy_indicator(world22):
    records = np.array(sample_records(world22, spec("rank-pairing", 2), seed=2, count=2000))
    rows = encode_rows(world22, records[:, :2])
    assert (rows >= 0).all()
    x, x2 = world22.support[rows.T]
    assert (records[:, 2] == (x[:, 1] >= x2[:, 1])).all()


def test_sampling_deterministic_in_seed(world22):
    s = spec("match-pairing", 1)
    assert sample_records(world22, s, 7, 50) == sample_records(world22, s, 7, 50)
    assert sample_records(world22, s, 7, 50) != sample_records(world22, s, 8, 50)


@pytest.mark.parametrize("text", ["label:1,2", "share:1", "rank:2"])
def test_features_are_the_records_as_floats(world22, text):
    """Feature rows are the sampled records flattened, as a float matrix for
    discrete objects too, from the same draws."""
    s = SupervisionSpec.parse(text)
    features = sample_features(world22, s, np.random.default_rng(3), 40)
    records = sample_records(world22, s, 3, 40)
    flat = [[v for field in rec for v in (field if isinstance(field, tuple) else (field,))] for rec in records]
    assert features.dtype == float and features.tolist() == flat


def test_empirical_frequencies_converge():
    w = random_world(13, 2, [2, 3], 0.4)
    s = spec("share-pairing", 2)
    table = augmented_table(w, s)
    n = 100000
    counts = Counter(sample_records(w, s, seed=4, count=n))
    bad = 0
    for outcome, p in table.mass.items():
        bound = 3.0 * math.sqrt(p * (1.0 - p) / n)
        if abs(counts[outcome] / n - p) > bound:
            bad += 1
    assert bad <= max(1, int(0.01 * len(table.mass)))


# -- dataset files ------------------------------------------------------------------------------


def test_dataset_file_round_trip(tmp_path, world22):
    path = tmp_path / "pairs.jsonl"
    write_dataset(path, world22, spec("share-pairing", 1), seed=5, count=20)
    header, records = read_dataset(path)
    assert header["spec"] == "share:1" and header["seed"] == 5 and header["count"] == 20
    assert len(records) == 20
    assert all(rec["shared"] == [1] for rec in records)


def test_dataset_header_only(tmp_path, world22):
    path = tmp_path / "empty.jsonl"
    write_dataset(path, world22, spec("rank-pairing", 1), seed=0, count=0)
    header, records = read_dataset(path)
    assert header["count"] == 0 and records == []


def test_dataset_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.jsonl"
    path.write_text('{"something": "else"}\n')
    with pytest.raises(SupervisionError):
        read_dataset(path)


HEADER = b'{"format": "disentlab-dataset"}\n'


@pytest.mark.parametrize(
    "data",
    [
        b"[1, 2]\n",
        b"not json\n",
        HEADER + b'{"x": 1\n',
        b"\xff\xfe\n",
        HEADER + b"[1\n2]\n3, 4\n",  # joined, the lines would parse as one array
        HEADER + b'{"x": 1} x\n',
        HEADER + b"\n",
        b"",
        HEADER[:-2] + b', "count": 3}\n{"x": 1}\n{"x": 2}\n',
        HEADER[:-2] + b', "count": 1}\n{"x": 1}\n{"x": 2}\n',
        HEADER + b'{"x": 1}\n',
        HEADER[:-2] + b', "count": true}\n{"x": 1}\n',
        HEADER[:-2] + b', "count": 1.0}\n{"x": 1}\n',
    ],
    ids=["header-array", "header-not-json", "record-not-json", "not-utf8",
         "records-only-valid-joined", "record-trailing-garbage", "record-empty", "empty-file",
         "truncated", "extra-line", "count-missing", "count-bool", "count-float"],
)
def test_dataset_rejects_malformed_lines(tmp_path, data):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(data)
    with pytest.raises(SupervisionError, match="bad.jsonl"):
        read_dataset(path)


def test_dataset_lines_padded_with_spaces_read_as_json(tmp_path, world22):
    path = tmp_path / "d.jsonl"
    write_dataset(path, world22, spec("restricted-labeling", 1, 2), seed=6, count=30)
    lines = path.read_text().splitlines()
    path.write_text("".join(f"  {line} \n" for line in lines))
    header, records = read_dataset(path)
    assert [header, *records] == [json.loads(line) for line in lines]


def reference_dataset(obj, s, seed, count) -> bytes:
    """The dataset file written with one ``json.dumps`` per record."""
    kind, I = s.validate_for(obj)
    header = {
        "format": "disentlab-dataset",
        "version": 1,
        "spec": s.to_string(),
        "kind": kind,
        "index_set": list(I.members()),
        "seed": seed,
        "count": count,
    }
    fields = {RESTRICTED_LABELING: ("x", "s_I"), MATCH_PAIRING: ("x", "x2"), RANK_PAIRING: ("x", "x2", "y")}[kind]
    docs = [header]
    for rec in sample_records(obj, s, seed, count):
        doc = dict(zip(fields, rec))
        if kind == MATCH_PAIRING:
            doc["shared"] = list(I.members())
        docs.append(doc)
    return "".join(json.dumps(doc) + "\n" for doc in docs).encode()


def dataset_objects():
    world = random_world(7, 3, [2, 3, 2], 0.5)
    oracle, rot = rotation_world()
    return {
        "world": world,
        "model": CandidateModel(world, np.random.default_rng(7).permutation(world.support_size)),
        "oracle": oracle,
        "rot": rot,
    }


@pytest.mark.parametrize("count", [0, 1, 2000])
@pytest.mark.parametrize("name", ["world", "model", "oracle", "rot"])
def test_dataset_bytes_equal_per_record_json(tmp_path, name, count):
    obj = dataset_objects()[name]
    path = tmp_path / "d.jsonl"
    for s in (spec("restricted-labeling", 1, 3), spec("share-pairing", 2), spec("change-pairing", 1),
              spec("match-pairing"), spec("rank-pairing", 2)):
        write_dataset(path, obj, s, seed=9, count=count)
        assert path.read_bytes() == reference_dataset(obj, s, 9, count), s.to_string()
