"""Feature extraction, the expression language, and the proposal layer."""

from __future__ import annotations

import json
import socket
import urllib.error

import numpy as np
import pytest

from dial.dsl import DslError, parse_expr
from dial.features import (
    FeatureError,
    FeatureProposal,
    FeatureSpec,
    HttpProposalClient,
    MockProposalClient,
    ProviderError,
    UNIVERSAL_FEATURES,
    build_pool,
    extract_features,
    extract_universal,
    proposal_client,
    propose_llm_features,
)

SIM_OBS = {"step_count": 3.0, "signal": 0.7, "type_proxy": 0.0, "num_options": 4.0, "is_finish": 0.0}


# -- universal / derived -----------------------------------------------------


def test_universal_maps_simulator_observation():
    vec = extract_universal(SIM_OBS)
    assert tuple(vec) == UNIVERSAL_FEATURES
    assert list(vec.values()) == [3.0, 0.7, 0.0, 4.0, 0.0]


def test_universal_defaults_to_zero_for_unexposed_signals():
    vec = extract_universal({"step_count": 2.0, "signal": 0.4})
    assert list(vec.values()) == [2.0, 0.4, 0.0, 0.0, 0.0]


def test_finish_flag_passes_through():
    vec = extract_universal({**SIM_OBS, "is_finish": 1.0})
    assert vec["is_finish"] == 1.0


def test_universal_prefers_exact_names_over_aliases():
    vec = extract_universal({"token_entropy": 0.9, "signal": 0.1})
    assert vec["token_entropy"] == 0.9


def test_numpy_scalars_read_as_the_numbers_they_hold():
    # What indexing sample_states' columns gives: np.int64, np.float64,
    # np.bool_; np.float32 too. numpy's str_ is text, never a number.
    obs = {"step_count": np.int64(3), "signal": np.float32(0.5), "type_proxy": np.bool_(True),
           "num_options": np.uint8(4), "is_finish": np.bool_(False), "note": np.str_("7")}
    assert list(extract_universal(obs).values()) == [3.0, 0.5, 1.0, 4.0, 0.0]
    assert parse_expr("step_count * 2 + type_proxy")(obs) == 7.0
    assert parse_expr("note + 1")(obs) == 1.0
    assert parse_expr("length(note)")(obs) == 1.0
    floats = {k: float(v) for k, v in obs.items() if k != "note"}
    pool = build_pool(propose_llm_features({}, MockProposalClient()).specs)
    assert extract_features(pool, obs).tolist() == extract_features(pool, floats).tolist()


def _pool_values(obs):
    pool = build_pool()
    return dict(zip((s.name for s in pool), extract_features(pool, obs).tolist()))


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
    specs = build_pool()
    a = extract_features(specs, SIM_OBS)
    b = extract_features(specs, dict(SIM_OBS))
    assert np.array_equal(a, b)


# -- DSL ----------------------------------------------------------------------


def test_dsl_length_arithmetic():
    expr = parse_expr('length("abcd") / 2')
    assert expr({}) == 2.0


def test_dsl_keyword_count_empty_text():
    expr = parse_expr('keyword_count(state_text, "click")')
    assert expr({"state_text": ""}) == 0.0
    assert expr({}) == 0.0


def test_dsl_keyword_count_case_insensitive():
    expr = parse_expr('keyword_count(state_text, "Click")')
    assert expr({"state_text": "click[a] CLICK[b]"}) == 2.0


def test_dsl_regex_count():
    expr = parse_expr('regex_count(state_text, "[0-9]+")')
    assert expr({"state_text": "a1 b22 c"}) == 2.0


def test_dsl_clamp_endpoint():
    expr = parse_expr("clamp(5, 0, 1)")
    assert expr({}) == 1.0


def test_dsl_comparison_is_indicator():
    expr = parse_expr("signal > 0.5")
    assert expr({"signal": 0.7}) == 1.0
    assert expr({"signal": 0.5}) == 0.0


def test_dsl_division_by_zero_flagged_as_zero():
    compiled = parse_expr("signal / step_count")
    assert compiled({"signal": 1.0, "step_count": 0.0}) == 0.0


def test_dsl_missing_field_defaults_to_zero():
    compiled = parse_expr("unknown_field + 1")
    assert compiled({}) == 1.0


# One namespace for the whole table: numbers, text, a bool and a None.
DSL_NS = {"a": 3.0, "b": 4, "x": -2.5, "n": 12.5, "t": "Abc abc", "flag": True, "off": False, "none": None}


@pytest.mark.parametrize(
    "source, expected",
    [
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
        ('length("abcd")', 4.0),
        ("length(t)", 7.0),
        ("length(n)", 4.0),  # str(12.5)
        ("length(flag)", 4.0),  # str(True)
        ("length(none)", 0.0),
        ('keyword_count(t, "")', 0.0),
        ('keyword_count(missing, "a")', 0.0),
        ('keyword_count(t, "ABC")', 2.0),
        ('keyword_count("abab", "b") - 1', 1.0),
        ('regex_count(t, "[ab]+")', 2.0),
        ("flag + off", 1.0),
        ("t + 1", 1.0),  # a text field read as a number is 0.0
        ("none * 2 + missing", 0.0),
    ],
)
def test_dsl_evaluation_table(source, expected):
    value = parse_expr(source)(dict(DSL_NS))
    assert type(value) is float and value == expected


# Each rejected source with the end of its message; the mixed cases pin
# which check fires first.
DSL_REJECTED = {
    "__import__('os')": "unknown function '__import__'",
    "obs.attr": "node Attribute is not part of the feature language",
    "x[0]": "node Subscript is not part of the feature language",
    "lambda: 1": "node Lambda is not part of the feature language",
    "f(1)": "unknown function 'f'",
    "regex_count(t, '[')": "bad regex '[': unterminated character set at position 0",
    "'bare string'": "literal 'bare string' outside a text function",
    "1 < 2 < 3": "only single two-sided comparisons are allowed",
    "keyword_count(t)": "keyword_count takes exactly 2 arguments",
    "": "empty expression",
    "not x": "node UnaryOp is not part of the feature language",
    "x ** 2": "node BinOp is not part of the feature language",
    "x % 2": "node BinOp is not part of the feature language",
    "min(1)": "min takes 2+ arguments",
    "abs(1, 2)": "abs takes 1 arguments",
    "max(a=1)": "keyword arguments are not allowed",
    'keyword_count(1, "a")': "keyword_count expects a field name or string literal",
    "keyword_count(t, x)": "keyword_count pattern must be a string literal",
    "a.b()": "only plain function calls are allowed",
    "x[0] + (1 < 2 < 3)": "node Subscript is not part of the feature language",
    "max(1, x[0], z=1)": "keyword arguments are not allowed",
    "abs(1, x[0])": "abs takes 1 arguments",
    "f(x[0])": "unknown function 'f'",
    "1 in x": "only single two-sided comparisons are allowed",
}


@pytest.mark.parametrize("bad", list(DSL_REJECTED))
def test_dsl_rejects_out_of_language_constructs(bad):
    with pytest.raises(DslError) as excinfo:
        parse_expr(bad)
    assert str(excinfo.value).endswith(DSL_REJECTED[bad])


def test_dsl_deterministic():
    compiled = parse_expr("max(signal, 0.2) * min(step_count, 3) - abs(0 - 1)")
    ns = {"signal": 0.6, "step_count": 5}
    assert compiled(ns) == compiled(ns) == 0.6 * 3 - 1


# -- pool assembly -------------------------------------------------------------


def test_pool_merges_with_unique_names():
    proposal = propose_llm_features({"any": "summary"}, MockProposalClient())
    pool = build_pool(proposal.specs)
    assert len(pool) == len(UNIVERSAL_FEATURES) + 2 + 5
    names = [s.name for s in pool]
    assert len(set(names)) == len(names)
    assert list(names[:5]) == list(UNIVERSAL_FEATURES)


def test_pool_rejects_duplicate_names():
    dupe = (FeatureSpec("entropy_sq", "llm", "signal + 1"),) + tuple(
        FeatureSpec(f"f{i}", "llm", "signal") for i in range(4)
    )
    with pytest.raises(FeatureError):
        build_pool(dupe)


def test_mock_provider_is_deterministic():
    client = MockProposalClient()
    first = propose_llm_features({"a": 1}, client)
    second = propose_llm_features({"b": 2}, client)
    assert first.specs == second.specs
    assert len(first.specs) == 5


def test_proposal_requires_exactly_five():
    with pytest.raises(FeatureError):
        FeatureProposal(tuple(FeatureSpec(f"f{i}", "llm", "signal") for i in range(4)))


def test_proposal_rejects_unparseable_expression():
    specs = tuple(FeatureSpec(f"f{i}", "llm", "signal") for i in range(4))
    with pytest.raises(DslError):
        FeatureProposal(specs + (FeatureSpec("f4", "llm", "x[0]"),))


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
    return HttpProposalClient(str(tmp_path / "cache.json"))


def test_http_client_parses_good_reply(tmp_path, monkeypatch, endpoint):
    calls = []

    def fake_urlopen(request, timeout=None):
        calls.append((request.full_url, request.get_header("Authorization"), json.loads(request.data)))
        return FakeResponse("Here you go:\n" + GOOD_REPLY)

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    proposal = propose_llm_features({"n_steps": 10}, _client(tmp_path))
    assert len(proposal.specs) == 5
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
    propose_llm_features(summary, client)
    propose_llm_features(summary, _client(tmp_path))
    assert len(calls) == 1  # second call answered from cache


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
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json"]
    _client(tmp_path).propose({"n_steps": 10})
    assert len(calls) == 2  # the first reply is still cached


def test_http_cache_creates_its_directory(tmp_path, monkeypatch, endpoint):
    monkeypatch.setattr("urllib.request.urlopen", lambda request, timeout=None: FakeResponse(GOOD_REPLY))
    client = HttpProposalClient(str(tmp_path / "out" / "cache.json"))
    client.propose({"n_steps": 10})
    assert list(json.loads((tmp_path / "out" / "cache.json").read_text()).values()) == [json.loads(GOOD_REPLY)]


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
    first = propose_llm_features(summary, _client(tmp_path))
    assert len(calls) == 2  # the invalid reply was retried
    cache = json.loads((tmp_path / "cache.json").read_text())
    assert list(cache.values()) == [json.loads(GOOD_REPLY)]
    assert propose_llm_features(summary, _client(tmp_path)) == first
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


def test_http_client_requires_endpoint(tmp_path, monkeypatch):
    monkeypatch.delenv("DIAL_LLM_URL", raising=False)
    with pytest.raises(ProviderError):
        HttpProposalClient(str(tmp_path / "cache.json"))


# -- proposal modes ---------------------------------------------------------------


@pytest.fixture
def no_network(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a proposal mode reached for the network")

    monkeypatch.setattr(socket.socket, "connect", refuse)
    monkeypatch.setattr(socket, "create_connection", refuse)
    monkeypatch.setattr("urllib.request.urlopen", refuse)


def test_proposal_mode_off_has_no_client(no_network, tmp_path):
    assert proposal_client("off", str(tmp_path / "cache.json")) is None


def test_proposal_mode_mock_is_the_mock_client(no_network, tmp_path):
    client = proposal_client("mock", str(tmp_path / "cache.json"))
    assert isinstance(client, MockProposalClient)
    assert len(propose_llm_features({"n_steps": 10}, client).specs) == 5


def test_proposal_mode_http_caches_where_asked(no_network, monkeypatch, tmp_path):
    monkeypatch.setenv("DIAL_LLM_URL", "http://llm.invalid/v1/chat/completions")
    client = proposal_client("http", str(tmp_path / "cache.json"))
    assert isinstance(client, HttpProposalClient)
    assert client.cache_path == str(tmp_path / "cache.json")


def test_proposal_mode_http_needs_an_endpoint(no_network, monkeypatch, tmp_path):
    monkeypatch.delenv("DIAL_LLM_URL", raising=False)
    with pytest.raises(ProviderError, match="DIAL_LLM_URL"):
        proposal_client("http", str(tmp_path / "cache.json"))


@pytest.mark.parametrize("mode", ["llm", "Mock", "", None])
def test_proposal_mode_unknown_is_refused(no_network, tmp_path, mode):
    with pytest.raises(FeatureError, match="unknown proposal mode"):
        proposal_client(mode, str(tmp_path / "cache.json"))


def test_dsl_nested_calls():
    expr = parse_expr('clamp(keyword_count(state_text, "go") + 0.5, 0, 2)')
    assert expr({"state_text": "go go go"}) == 2.0


def test_default_exploration_constants():
    from dial import explore

    assert explore.DEFAULT_EPS_EXPLORE == 0.5
    assert explore.DEFAULT_N_EXPLORE == 50
    assert explore.DEFAULT_K_CANDIDATES == 5
    assert explore.DEFAULT_N_ROLLOUTS == 5
    assert explore.DEFAULT_ROLLOUT_HORIZON == 3
