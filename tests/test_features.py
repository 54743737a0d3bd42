"""Feature extraction, the expression language, and the proposal layer."""

from __future__ import annotations

import json
import re
import socket
import urllib.error

import numpy as np
import pytest

from dial.dsl import DslError, parse_row
from dial.features import (
    FeatureError,
    FeatureSpec,
    HttpProposalClient,
    MockProposalClient,
    ProviderError,
    UNIVERSAL_FEATURES,
    UNIVERSAL_SPECS,
    build_pool,
    compile_features,
    extract_features,
    proposal_client,
    proposed_specs,
    summary_digest,
)

SIM_OBS = {"step_count": 3.0, "signal": 0.7, "type_proxy": 0.0, "num_options": 4.0, "is_finish": 0.0}


# -- universal / derived -----------------------------------------------------


def _universal(obs):
    return list(extract_features(compile_features(UNIVERSAL_SPECS), obs))


def test_universal_maps_simulator_observation():
    assert tuple(spec.name for spec in UNIVERSAL_SPECS) == UNIVERSAL_FEATURES
    assert _universal(SIM_OBS) == [3.0, 0.7, 0.0, 4.0, 0.0]


def test_universal_defaults_to_zero_for_unexposed_signals():
    assert _universal({"step_count": 2.0, "signal": 0.4}) == [2.0, 0.4, 0.0, 0.0, 0.0]


def test_finish_flag_passes_through():
    assert _universal({**SIM_OBS, "is_finish": 1.0})[UNIVERSAL_FEATURES.index("is_finish")] == 1.0


def test_universal_prefers_exact_names_over_aliases():
    assert _universal({"token_entropy": 0.9, "signal": 0.1})[UNIVERSAL_FEATURES.index("token_entropy")] == 0.9


def test_a_renamed_builtin_reads_its_universal_feature():
    # The spec's own name is no key: an observation field of that name is
    # not read, and an alias still resolves through the universal name.
    specs = [FeatureSpec("steps", "universal", "builtin:step_count"),
             FeatureSpec("entropy", "universal", "builtin:token_entropy")]
    assert list(extract_features(compile_features(specs), {**SIM_OBS, "steps": 99.0, "entropy": 99.0})) == [3.0, 0.7]


def test_numpy_scalars_read_as_the_numbers_they_hold():
    # What indexing sample_states' columns gives: np.int64, np.float64,
    # np.bool_; np.float32 too. numpy's str_ is text, never a number.
    obs = {"step_count": np.int64(3), "signal": np.float32(0.5), "type_proxy": np.bool_(True),
           "num_options": np.uint8(4), "is_finish": np.bool_(False), "note": np.str_("7")}
    assert _universal(obs) == [3.0, 0.5, 1.0, 4.0, 0.0]
    assert parse_row(["step_count * 2 + type_proxy"], {})(obs)[0] == 7.0
    assert parse_row(["note + 1"], {})(obs)[0] == 1.0
    floats = {k: float(v) for k, v in obs.items() if k != "note"}
    pool = build_pool(MockProposalClient().propose({}))
    row = compile_features(pool)
    assert list(extract_features(row, obs)) == list(extract_features(row, floats))


_READS = {"f": 0.25, "i": 3, "i64": np.int64(-2), "f32": np.float32(0.5), "f64": np.float64(0.75),
          "b": np.bool_(True), "pb": True, "t": "text"}


@pytest.mark.parametrize(
    "expr, expected",
    [
        # comparisons, a literal on the left, the right or both sides
        ("f > 0.2", 1.0), ("0.2 > f", 0.0), ("2 > 1", 1.0), ("1 >= 2", 0.0), ("i == 3", 1.0),
        ("3 != i", 0.0), ("-1 <= f", 1.0), ("f < -1", 0.0), ("f > f", 0.0), ("1 == 1", 1.0),
        # arithmetic with literal operands, division by zero included
        ("f * 4", 1.0), ("4 - f", 3.75), ("1 + 2", 3.0), ("-(2 * 3)", -6.0), ("f / 0", 0.0), ("1 / 0", 0.0),
        ("0 / 0", 0.0), ("i / 2", 1.5), ("2 / f", 8.0), ("max(f, 1)", 1.0), ("min(2, 1)", 1.0), ("abs(-3)", 3.0),
        ("clamp(i, 0, 1)", 1.0), ("7", 7.0), ("min(2, 1, 3)", 1.0),
        # name reads: numbers of every kind, text and missing fields
        ("f", 0.25), ("i", 3.0), ("i64", -2.0), ("f32", 0.5), ("f64", 0.75), ("b", 1.0), ("pb", 1.0),
        ("t", 0.0), ("missing", 0.0), ("-i64", 2.0), ("+f32", 0.5),
    ],
)
def test_every_expression_value_is_a_python_float(expr, expected):
    value = parse_row([expr], {})(_READS)[0]
    assert type(value) is float and value == expected


def _pool_values(obs):
    pool = build_pool()
    return dict(zip((s.name for s in pool), list(extract_features(compile_features(pool), obs))))


def test_derived_formulas():
    vec = _pool_values({"step_count": 5.0, "signal": 0.5})
    assert tuple(s.name for s in build_pool())[5:] == ("entropy_sq", "step_x_entropy")
    assert vec["entropy_sq"] == 0.25 and vec["step_x_entropy"] == 2.5


def test_derived_zero_cases():
    zero_sigma = _pool_values({"step_count": 5.0, "signal": 0.0})
    assert zero_sigma["entropy_sq"] == 0.0 and zero_sigma["step_x_entropy"] == 0.0
    zero_step = _pool_values({"step_count": 0.0, "signal": 0.3})
    assert zero_step["step_x_entropy"] == 0.0


def test_extraction_is_pure():
    row = compile_features(build_pool())
    a = extract_features(row, SIM_OBS)
    b = extract_features(row, dict(SIM_OBS))
    assert np.array_equal(a, b)


# -- DSL ----------------------------------------------------------------------


def test_dsl_clamp_endpoint():
    expr = parse_row(["clamp(5, 0, 1)"], {})
    assert expr({})[0] == 1.0


def test_dsl_comparison_is_indicator():
    expr = parse_row(["signal > 0.5"], {})
    assert expr({"signal": 0.7})[0] == 1.0
    assert expr({"signal": 0.5})[0] == 0.0


def test_dsl_division_by_zero_flagged_as_zero():
    compiled = parse_row(["signal / step_count"], {})
    assert compiled({"signal": 1.0, "step_count": 0.0})[0] == 0.0


def test_dsl_missing_field_defaults_to_zero():
    compiled = parse_row(["unknown_field + 1"], {})
    assert compiled({})[0] == 1.0


# One namespace for the whole table: numbers, text, a bool and a None,
# two of them under names Python also uses.
DSL_NS = {"a": 3.0, "b": 4, "x": -2.5, "n": 12.5, "t": "Abc abc", "flag": True, "off": False, "none": None,
          "ns": 7.0, "min": 1.5}


DSL_TABLE = [
    ("-x", 2.5),
    ("+x", -2.5),
    ("a + b", 7.0),
    ("a - b", -1.0),
    ("a * b", 12.0),
    ("a / b", 0.75),
    ("a / 0.0", 0.0),
    ("a / -0.0", 0.0),
    ("a > b", 0.0),
    ("a >= 3", 1.0),
    ("a < b", 1.0),
    ("b <= 3", 0.0),
    ("a == 3", 1.0),
    ("a != 3", 0.0),
    ("min(b, a, x)", -2.5),
    ("max(x, b, a)", 4.0),
    ("min(b, a)", 3.0),
    ("max(a, x)", 3.0),
    ("min(b, n, a, x)", -2.5),
    ("max(x, a, n, b, 1)", 12.5),
    ("abs(x)", 2.5),
    ("clamp(n, 0, 10)", 10.0),
    ("clamp(2, 0, 1)", 1.0),  # all literals
    ("flag + off", 1.0),
    ("t + 1", 1.0),  # a text field read as a number is 0.0
    ("none * 2 + missing", 0.0),
    # a name is always a field, never a function or a Python name
    ("ns + 1", 8.0),
    ("min * 2 + min(ns, 5)", 8.0),
    ("__import__ + 1", 1.0),
    # a literal past float range is infinite
    ("x < 1e999", 1.0),
    ("-1e999 < x", 1.0),
    ("clamp(x, 0, 1e999)", 0.0),
    ("clamp(n, 0, 1e999)", 12.5),
    # a zero division inside a comparison is 0.0 there too
    ("a / (b - 4) < 1", 1.0),
    ("max(a / off, x) == 0", 1.0),
]


@pytest.mark.parametrize("source, expected", DSL_TABLE)
def test_dsl_evaluation_table(source, expected):
    value = parse_row([source], {})(dict(DSL_NS))[0]
    assert type(value) is float and value == expected


# -- a feature list compiled to one row function ------------------------------


def _row_of(sources):
    return compile_features([FeatureSpec(f"f{i}", "llm", source) for i, source in enumerate(sources)])


def test_a_compiled_row_gives_the_bits_of_each_expression():
    sources = [source for source, _ in DSL_TABLE]
    values = _row_of(sources)(dict(DSL_NS))
    assert type(values) is tuple and all(type(v) is float for v in values)
    assert [v.hex() for v in values] == [parse_row([source], {})(dict(DSL_NS))[0].hex() for source in sources]


# The universal features and their aliases, in pool order, as the gate
# reads them: the first alias the observation holds as a number, else 0.0.
_ALIAS_RULE = {"step_count": ("step_count",), "token_entropy": ("token_entropy", "signal"),
               "evidence_count": ("evidence_count", "type_proxy"),
               "num_available_actions": ("num_available_actions", "num_options"), "is_finish": ("is_finish",)}
_ROW_SOURCES = ["token_entropy * token_entropy", "step_count * token_entropy", "evidence_count + 0.5",
                "num_available_actions / max(step_count, 1)", "is_finish > 0", "signal", "type_proxy * 2",
                "token_entropy - signal", "note + 1", "note * note", "max(note, type_proxy) - note"]


class _OddFloat(float):
    """A float whose arithmetic is not a float's: a row reads it as the float it holds."""

    def __add__(self, other):
        return 99.0

    __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = __add__


def _per_expression(obs):
    """Each universal feature, then each of ``_ROW_SOURCES``, evaluated one
    expression at a time over the raw fields with each universal name
    resolved from its aliases."""
    namespace = dict(obs)
    for name, keys in _ALIAS_RULE.items():
        numbers = [obs[k] for k in keys if isinstance(obs.get(k), (float, int, np.number, np.bool_))]
        namespace[name] = float(numbers[0]) if numbers else 0.0
    return [namespace[name] for name in _ALIAS_RULE] + [parse_row([s], {})(namespace)[0] for s in _ROW_SOURCES]


@pytest.mark.parametrize(
    "obs, universal",
    [
        ({}, [0.0, 0.0, 0.0, 0.0, 0.0]),  # every key missing
        (SIM_OBS, [3.0, 0.7, 0.0, 4.0, 0.0]),
        # text under the exact name falls through to the alias; text under both reads 0.0
        ({"token_entropy": "high", "signal": 0.25, "evidence_count": "many", "type_proxy": "x",
          "num_available_actions": None, "num_options": 6.0}, [0.0, 0.25, 0.0, 6.0, 0.0]),
        ({"step_count": np.int64(4), "signal": np.float32(0.5), "type_proxy": np.bool_(True),
          "num_options": np.uint8(3), "is_finish": np.float64(1.0)}, [4.0, 0.5, 1.0, 3.0, 1.0]),
        ({"step_count": True, "token_entropy": False, "signal": 0.9, "evidence_count": 2, "type_proxy": 5.0,
          "is_finish": np.bool_(False)}, [1.0, 0.0, 2.0, 0.0, 0.0]),
        # a float subclass reads as the float it holds, without its own arithmetic
        ({"step_count": _OddFloat(2.0), "token_entropy": _OddFloat(0.3), "signal": 0.9, "note": _OddFloat(1.5)},
         [2.0, 0.3, 0.0, 0.0, 0.0]),
        # a numpy float is a float subclass: under the first alias it wins over a float under the second
        ({"token_entropy": np.float64(0.25), "signal": 0.75, "evidence_count": np.float64(3.0), "type_proxy": 1.0},
         [0.0, 0.25, 3.0, 0.0, 0.0]),
        # None under the first alias goes on to the second; text there reads 0.0
        ({"token_entropy": None, "signal": "high", "evidence_count": None, "type_proxy": "many",
          "num_available_actions": None, "num_options": 5.0}, [0.0, 0.0, 0.0, 5.0, 0.0]),
        # one raw field, read in several expressions
        ({"note": 2.5, "type_proxy": 4.0, "signal": 0.5}, [0.0, 0.5, 4.0, 0.0, 0.0]),
    ],
    ids=["missing", "floats", "text", "numpy", "bool", "float-subclass", "numpy-first", "none-then-text",
         "raw-field-reread"],
)
def test_a_compiled_row_reads_each_universal_feature_from_its_aliases(obs, universal):
    row = compile_features([*UNIVERSAL_SPECS, *(FeatureSpec(f"f{i}", "llm", s) for i, s in enumerate(_ROW_SOURCES))])
    assert all(type(v) is float for v in row(obs))
    values = list(extract_features(row, obs))
    assert values[:5] == universal
    assert [v.hex() for v in values] == [v.hex() for v in _per_expression(obs)]


def test_a_compiled_row_reads_fields_named_like_its_own_names():
    # ns is the function's argument, min, _number, type and float are in
    # its globals and _0 is the local the first name read is bound to: each
    # is still a field here, and a universal name still reads its aliases.
    obs = {"ns": 7.0, "min": 1.5, "_number": 2.0, "_0": -1.0, "signal": 0.5, "type": 0.25, "float": 4.0}
    sources = ["ns + 1", "min * 2 + min(ns, 5)", "_number", "_0", "step_count", "token_entropy", "type * float"]
    assert _row_of(sources)(obs) == (8.0, 8.0, 2.0, -1.0, 0.0, 0.5, 1.0)


# Each rejected source with the end of its message; the mixed cases pin
# which check fires first.
DSL_REJECTED = {
    "__import__('os')": "unknown function '__import__'",
    "obs.attr": "node Attribute is not part of the feature language",
    "x[0]": "node Subscript is not part of the feature language",
    "lambda: 1": "node Lambda is not part of the feature language",
    "f(1)": "unknown function 'f'",
    "'bare string'": "literal 'bare string' is not a number",
    "1 < 2 < 3": "only single two-sided comparisons are allowed",
    "": "empty expression",
    "not x": "node UnaryOp is not part of the feature language",
    "x ** 2": "node BinOp is not part of the feature language",
    "x % 2": "node BinOp is not part of the feature language",
    "min(1)": "min takes 2+ arguments",
    "abs(1, 2)": "abs takes 1 arguments",
    "max(a=1)": "keyword arguments are not allowed",
    "a.b()": "only plain function calls are allowed",
    "x[0] + (1 < 2 < 3)": "node Subscript is not part of the feature language",
    "max(1, x[0], z=1)": "keyword arguments are not allowed",
    "abs(1, x[0])": "abs takes 1 arguments",
    "f(x[0])": "unknown function 'f'",
    "1 in x": "only single two-sided comparisons are allowed",
    # the language is numeric: no function reads text, whatever its arguments
    "length(signal)": "unknown function 'length'",
    "keyword_count(t)": "unknown function 'keyword_count'",
    'keyword_count(1, "a")': "unknown function 'keyword_count'",
    "keyword_count(t, x)": "unknown function 'keyword_count'",
    "regex_count(t, '[')": "unknown function 'regex_count'",
    # a literal is a float: an int past float range and a bool are not
    "1" + "0" * 400: f"literal {10**400} is past float range",
    "-1" + "0" * 400 + " + x": f"literal {10**400} is past float range",
    "True": "literal True is not a number",
    "-True": "literal True is not a number",
    "x > False": "literal False is not a number",
}


@pytest.mark.parametrize("bad", list(DSL_REJECTED))
def test_dsl_rejects_out_of_language_constructs(bad):
    with pytest.raises(DslError) as excinfo:
        parse_row([bad], {})
    assert str(excinfo.value).endswith(DSL_REJECTED[bad])


def test_dsl_deterministic():
    compiled = parse_row(["max(signal, 0.2) * min(step_count, 3) - abs(0 - 1)"], {})
    ns = {"signal": 0.6, "step_count": 5}
    assert compiled(ns)[0] == compiled(ns)[0] == 0.6 * 3 - 1


# -- pool assembly -------------------------------------------------------------


def test_pool_merges_with_unique_names():
    pool = build_pool(MockProposalClient().propose({"any": "summary"}))
    assert len(pool) == len(UNIVERSAL_FEATURES) + 2 + 5
    names = [s.name for s in pool]
    assert len(set(names)) == len(names)
    assert list(names[:5]) == list(UNIVERSAL_FEATURES)


def test_mock_provider_is_deterministic():
    client = MockProposalClient()
    first = client.propose({"a": 1})
    second = client.propose({"b": 2})
    assert first == second
    assert len(first) == 5


def _items(n):
    return [{"name": f"f{i}", "expr": "signal"} for i in range(n)]


def test_proposal_requires_exactly_five():
    with pytest.raises(ProviderError, match="exactly 5 features, got 4"):
        proposed_specs(_items(4))


def test_proposal_rejects_unparseable_expression():
    for expr in ("x[0]", "length(signal)", "1" + "0" * 400, "True"):
        with pytest.raises(ProviderError, match="proposal rejected") as excinfo:
            proposed_specs(_items(4) + [{"name": "f4", "expr": expr}])
        assert isinstance(excinfo.value.__cause__, DslError)


@pytest.mark.parametrize(
    "fifth, message",
    [({"name": "f0", "expr": "signal + 1"}, "contains duplicate feature names"),
     ({"name": "entropy_sq", "expr": "signal * signal"}, "reuses reserved feature names: ['entropy_sq']")],
    ids=["duplicate", "reserved"],
)
def test_proposal_rejects_a_repeated_or_reserved_name(fifth, message):
    with pytest.raises(ProviderError, match=f"^proposal rejected: proposal {re.escape(message)}$"):
        proposed_specs(_items(4) + [fifth])


def test_a_bad_proposal_from_any_provider_is_a_provider_error():
    class FourFeatures(MockProposalClient):
        FIXED = MockProposalClient.FIXED[:4]

    with pytest.raises(ProviderError, match="exactly 5 features"):
        FourFeatures().propose({})


# -- HTTP client ----------------------------------------------------------------


class FakeResponse:
    """What urlopen returns: a context manager whose body is a chat reply."""

    def __init__(self, content):
        self._body = json.dumps({"choices": [{"message": {"content": content}}]}).encode()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def read(self):
        return self._body


GOOD_REPLY = json.dumps(
    [{"name": f"h{i}", "expr": "signal * 2"} for i in range(5)]
)


@pytest.fixture
def endpoint(monkeypatch):
    monkeypatch.setenv("DIAL_LLM_URL", "http://llm.invalid/v1/chat/completions")
    monkeypatch.setenv("DIAL_LLM_KEY", "key")
    monkeypatch.setenv("DIAL_LLM_MODEL", "test-model")


def _client(tmp_path):
    return HttpProposalClient(str(tmp_path / "proposal_cache"))


def _entry(tmp_path, summary):
    """The path of the cache entry ``_client(tmp_path)`` keeps for ``summary``."""
    return tmp_path / "proposal_cache" / f"{summary_digest(summary)}.json"


def _entries(tmp_path):
    return sorted(p.name for p in (tmp_path / "proposal_cache").iterdir())


def test_http_client_parses_good_reply(tmp_path, monkeypatch, endpoint):
    calls = []

    def fake_urlopen(request, timeout=None):
        calls.append((request.full_url, request.get_header("Authorization"), json.loads(request.data)))
        return FakeResponse("Here you go:\n" + GOOD_REPLY)

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    assert len(_client(tmp_path).propose({"n_steps": 10})) == 5
    # The endpoint, key and model are the environment's.
    url, auth, body = calls[0]
    assert (url, auth, body["model"]) == ("http://llm.invalid/v1/chat/completions", "Bearer key", "test-model")


def test_http_client_uses_cache(tmp_path, monkeypatch, endpoint):
    calls = []

    def fake_urlopen(request, timeout=None):
        calls.append(1)
        return FakeResponse(GOOD_REPLY)

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    client = _client(tmp_path)
    summary = {"n_steps": 10}
    client.propose(summary)
    _client(tmp_path).propose(summary)
    assert len(calls) == 1  # second call answered from cache


def test_http_client_checks_each_proposal_once(tmp_path, monkeypatch, endpoint):
    # A fresh reply was once checked twice: by the client, then again by
    # the function that asked it.
    checks = []

    def counting_proposed_specs(items):
        checks.append(items)
        return proposed_specs(items)

    monkeypatch.setattr("dial.features.proposed_specs", counting_proposed_specs)
    reply = [{**item, "why": "more signal"} for item in json.loads(GOOD_REPLY)]
    monkeypatch.setattr("urllib.request.urlopen", lambda request, timeout=None: FakeResponse(json.dumps(reply)))
    summary = {"n_steps": 10}
    fresh = _client(tmp_path).propose(summary)
    assert len(checks) == 1
    assert _client(tmp_path).propose(summary) == fresh
    assert len(checks) == 2
    # The cache holds one entry: each feature's name and expr only, in the
    # bytes the one-file cache gave its entry.
    assert _entries(tmp_path) == [_entry(tmp_path, summary).name]
    assert _entry(tmp_path, summary).read_text() == json.dumps(json.loads(GOOD_REPLY), sort_keys=True, indent=1)


def test_http_cache_survives_a_failed_store(tmp_path, monkeypatch, endpoint):
    calls = []
    intact = json.JSONEncoder.iterencode

    def broken_iterencode(self, o, _one_shot=False):
        yield "{"
        raise RuntimeError("serializer failed")

    def fake_urlopen(request, timeout=None):
        calls.append(1)
        response = FakeResponse(GOOD_REPLY)
        if len(calls) == 2:  # the second reply arrives, then storing it fails
            monkeypatch.setattr(json.JSONEncoder, "iterencode", broken_iterencode)
        return response

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    _client(tmp_path).propose({"n_steps": 10})
    with pytest.raises(RuntimeError, match="serializer failed"):
        _client(tmp_path).propose({"n_steps": 11})
    monkeypatch.setattr(json.JSONEncoder, "iterencode", intact)
    assert _entries(tmp_path) == [_entry(tmp_path, {"n_steps": 10}).name]
    _client(tmp_path).propose({"n_steps": 10})
    assert len(calls) == 2  # the first reply is still cached


def test_http_cache_creates_its_directory(tmp_path, monkeypatch, endpoint):
    monkeypatch.setattr("urllib.request.urlopen", lambda request, timeout=None: FakeResponse(GOOD_REPLY))
    client = HttpProposalClient(str(tmp_path / "out" / "proposal_cache"))
    client.propose({"n_steps": 10})
    assert json.loads(_entry(tmp_path / "out", {"n_steps": 10}).read_text()) == json.loads(GOOD_REPLY)


def test_http_client_retries_once_then_fails(tmp_path, monkeypatch, endpoint):
    calls = []
    four = json.dumps([{"name": f"h{i}", "expr": "signal"} for i in range(4)])

    def fake_urlopen(request, timeout=None):
        calls.append(1)
        return FakeResponse(four)

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    with pytest.raises(ProviderError):
        _client(tmp_path).propose({"n": 1})
    assert len(calls) == 2


def test_http_client_retries_a_reply_with_an_invalid_name_and_never_caches_it(tmp_path, monkeypatch, endpoint):
    calls = []
    bad = json.dumps([{"name": "high entropy", "expr": "signal"}] + json.loads(GOOD_REPLY)[1:])

    def fake_urlopen(request, timeout=None):
        calls.append(1)
        return FakeResponse(bad if len(calls) == 1 else GOOD_REPLY)

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    summary = {"n_steps": 10}
    first = _client(tmp_path).propose(summary)
    assert len(calls) == 2  # the invalid reply was retried
    assert _entries(tmp_path) == [_entry(tmp_path, summary).name]
    assert json.loads(_entry(tmp_path, summary).read_text()) == json.loads(GOOD_REPLY)
    assert _client(tmp_path).propose(summary) == first
    assert len(calls) == 2  # the rerun is answered from the cache


def test_http_client_unreachable(tmp_path, monkeypatch, endpoint):
    def fake_urlopen(request, timeout=None):
        raise ConnectionError("no route to host")

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    with pytest.raises(ProviderError):
        _client(tmp_path).propose({"n": 1})


class _Malformed(FakeResponse):
    def read(self):
        return b"<html>not json"


@pytest.mark.parametrize("fault", [
    urllib.error.HTTPError("http://llm.invalid", 503, "Service Unavailable", {}, None),
    TimeoutError("timed out"),
    "malformed",
])
def test_http_client_maps_transport_faults(tmp_path, monkeypatch, endpoint, fault):
    def fake_urlopen(request, timeout=None):
        assert request.get_method() == "POST" and timeout == 60.0
        if fault == "malformed":
            return _Malformed("")
        raise fault

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    with pytest.raises(ProviderError, match="proposal endpoint failed"):
        _client(tmp_path).propose({"n": 1})


def _unused_request(self, prompt):
    raise AssertionError("the proposal endpoint was requested")


_SUMMARY = {"n_steps": 10}


@pytest.mark.parametrize(
    "entry, message",
    [
        ([{"name": "h0", "sql": "signal"}] + json.loads(GOOD_REPLY)[1:], "needs 'name' and 'expr'"),
        (json.loads(GOOD_REPLY)[:4], "exactly 5 features"),
        ([{"name": "high entropy", "expr": "signal"}] + json.loads(GOOD_REPLY)[1:], "is not an identifier"),
        ([{"name": "h0", "expr": "signal +"}] + json.loads(GOOD_REPLY)[1:], "proposal rejected"),
        ({"h0": "signal"}, "needs 'name' and 'expr'"),
        (7, "needs 'name' and 'expr'"),
    ],
    ids=["missing-expr", "four-features", "bad-name", "bad-expr", "object", "number"],
)
def test_http_cached_entry_is_checked_like_a_reply(tmp_path, monkeypatch, endpoint, entry, message):
    # A cache entry once returned unchecked, to fail later as a bare KeyError.
    monkeypatch.setattr(HttpProposalClient, "_request", _unused_request)
    cache = _entry(tmp_path, _SUMMARY)
    cache.parent.mkdir()
    cache.write_text(json.dumps(entry))
    with pytest.raises(ProviderError, match=message) as excinfo:
        _client(tmp_path).propose(_SUMMARY)
    assert str(excinfo.value).startswith(f"proposal cache {cache}: ")


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "cannot be read (Expecting property name"),
        ("[]", "proposal rejected: proposal must contain exactly 5 features, got 0"),
        ('"cache"', "each proposed feature needs 'name' and 'expr'"),
        ("null", "each proposed feature needs 'name' and 'expr'"),
    ],
    ids=["malformed", "list", "string", "null"],
)
def test_http_cache_entry_that_is_not_a_proposal_is_refused_before_a_request(
        tmp_path, monkeypatch, endpoint, text, message):
    # A cache that was not a JSON object was once found only after a paid
    # request, as a TypeError while storing the reply.
    monkeypatch.setattr(HttpProposalClient, "_request", _unused_request)
    cache = _entry(tmp_path, _SUMMARY)
    cache.parent.mkdir()
    cache.write_text(text)
    with pytest.raises(ProviderError) as excinfo:
        _client(tmp_path).propose(_SUMMARY)
    assert str(excinfo.value).startswith(f"proposal cache {cache}: {message}")
    assert cache.read_text() == text


def _store_in_between(monkeypatch, store):
    """Run ``store()`` once, when the next file is opened for creation: a
    store's first write, after it has read the cache."""
    real_open = open
    calls = []

    def open_then_store(file, mode="r", *args, **kwargs):
        if "x" in mode and not calls:
            calls.append(file)
            store()
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", open_then_store)
    return calls


def test_http_cache_keeps_an_entry_another_client_stores_while_one_is_stored(tmp_path, monkeypatch, endpoint):
    # With one shared cache file, the first client's store replaced the
    # file it had read, and the second client's entry was lost.
    monkeypatch.setattr("urllib.request.urlopen", lambda request, timeout=None: FakeResponse(GOOD_REPLY))
    calls = _store_in_between(monkeypatch, lambda: _client(tmp_path).propose({"n_steps": 11}))
    _client(tmp_path).propose({"n_steps": 10})
    assert len(calls) == 1
    monkeypatch.setattr(HttpProposalClient, "_request", _unused_request)
    for summary in ({"n_steps": 10}, {"n_steps": 11}):
        assert len(_client(tmp_path).propose(summary)) == 5  # answered from the cache


def test_http_cache_entry_stored_first_stands(tmp_path, monkeypatch, endpoint):
    # Two fits of one dataset may both request; the entry stored first is
    # what both return, so each finished fit matches the cache.
    other = json.dumps([{"name": f"g{i}", "expr": "signal"} for i in range(5)])
    replies = iter([GOOD_REPLY, other])
    monkeypatch.setattr("urllib.request.urlopen", lambda request, timeout=None: FakeResponse(next(replies)))
    second = []
    _store_in_between(monkeypatch, lambda: second.extend(_client(tmp_path).propose(_SUMMARY)))
    first = _client(tmp_path).propose(_SUMMARY)
    assert [spec.name for spec in first] == [spec.name for spec in second] == [f"g{i}" for i in range(5)]
    assert json.loads(_entry(tmp_path, _SUMMARY).read_text()) == json.loads(other)
    assert _entries(tmp_path) == [_entry(tmp_path, _SUMMARY).name]


def test_http_cache_store_touches_only_its_own_entry(tmp_path, monkeypatch, endpoint):
    monkeypatch.setattr("urllib.request.urlopen", lambda request, timeout=None: FakeResponse(GOOD_REPLY))
    for n in range(3):
        _client(tmp_path).propose({"n_steps": n})
    before = {p.name: p.read_bytes() for p in (tmp_path / "proposal_cache").iterdir()}
    _client(tmp_path).propose({"n_steps": 3})
    after = {p.name: p.read_bytes() for p in (tmp_path / "proposal_cache").iterdir()}
    assert sorted(after) == sorted([*before, _entry(tmp_path, {"n_steps": 3}).name])
    assert {name: after[name] for name in before} == before
    # A store that fails between writing and linking leaves no entry and no temporary file.
    def broken_link(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("os.link", broken_link)
    with pytest.raises(OSError, match="No space left"):
        _client(tmp_path).propose({"n_steps": 4})
    assert {p.name: p.read_bytes() for p in (tmp_path / "proposal_cache").iterdir()} == after


def test_http_client_requires_endpoint(tmp_path, monkeypatch):
    monkeypatch.delenv("DIAL_LLM_URL", raising=False)
    with pytest.raises(ProviderError):
        HttpProposalClient(str(tmp_path / "proposal_cache"))


# -- proposal modes ---------------------------------------------------------------


@pytest.fixture
def no_network(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a proposal mode reached for the network")

    monkeypatch.setattr(socket.socket, "connect", refuse)
    monkeypatch.setattr(socket, "create_connection", refuse)
    monkeypatch.setattr("urllib.request.urlopen", refuse)


def test_proposal_mode_off_has_no_client(no_network, tmp_path):
    assert proposal_client("off", str(tmp_path / "proposal_cache")) is None


def test_proposal_mode_mock_is_the_mock_client(no_network, tmp_path):
    client = proposal_client("mock", str(tmp_path / "proposal_cache"))
    assert isinstance(client, MockProposalClient)
    assert len(client.propose({"n_steps": 10})) == 5


def test_proposal_mode_http_caches_where_asked(no_network, monkeypatch, tmp_path):
    monkeypatch.setenv("DIAL_LLM_URL", "http://llm.invalid/v1/chat/completions")
    client = proposal_client("http", str(tmp_path / "proposal_cache"))
    assert isinstance(client, HttpProposalClient)
    assert client.cache_dir == str(tmp_path / "proposal_cache")


def test_proposal_mode_http_needs_an_endpoint(no_network, monkeypatch, tmp_path):
    monkeypatch.delenv("DIAL_LLM_URL", raising=False)
    with pytest.raises(ProviderError, match="DIAL_LLM_URL"):
        proposal_client("http", str(tmp_path / "proposal_cache"))


@pytest.mark.parametrize("mode", ["llm", "Mock", "", None])
def test_proposal_mode_unknown_is_refused(no_network, tmp_path, mode):
    with pytest.raises(FeatureError, match="unknown proposal mode"):
        proposal_client(mode, str(tmp_path / "proposal_cache"))


def test_dsl_nested_calls():
    expr = parse_row(["clamp(max(abs(x), 1) + 0.5, 0, 2)"], {})
    assert expr({"x": -3.0})[0] == 2.0
    assert expr({"x": 0.2})[0] == 1.5


def test_default_exploration_constants():
    from dial import explore

    assert explore.DEFAULT_EPS_EXPLORE == 0.5
    assert explore.DEFAULT_N_EXPLORE == 50
    assert explore.DEFAULT_K_CANDIDATES == 5
    assert explore.DEFAULT_N_ROLLOUTS == 5
    assert explore.DEFAULT_ROLLOUT_HORIZON == 3
