"""One precedence test for all three two-engine backend knobs.

``repro.flow.config.BackendChoice`` is the single definition of backend
resolution — explicit argument > config field (fed by the CLI flags) >
environment variable > built-in default — shared by the timing-engine,
insertion-DP, and DME knobs.  These tests pin the precedence order once and
assert the per-subsystem mirrors (literal names/defaults and ``resolve_*``
helpers) agree with the shared definition.
"""

from __future__ import annotations

import pytest

from repro.flow.config import (
    BackendChoice,
    BackendSelection,
    CtsConfig,
    DME_BACKEND_CHOICE,
    DP_BACKEND_CHOICE,
    GUARD_POLICY_CHOICE,
    ResolvedBackends,
    TIMING_ENGINE_CHOICE,
    _reset_deprecation_warnings,
)

CHOICES = (TIMING_ENGINE_CHOICE, DP_BACKEND_CHOICE, DME_BACKEND_CHOICE)
CHOICE_IDS = tuple(choice.kind.replace(" ", "-") for choice in CHOICES)


@pytest.mark.parametrize("choice", CHOICES, ids=CHOICE_IDS)
class TestPrecedence:
    def test_builtin_default(self, choice, monkeypatch):
        monkeypatch.delenv(choice.env_var, raising=False)
        assert choice.default_name() == choice.default == "vectorized"
        assert choice.resolve() == "vectorized"
        assert choice.resolve(None, None) == "vectorized"

    def test_env_beats_default(self, choice, monkeypatch):
        monkeypatch.setenv(choice.env_var, "reference")
        assert choice.resolve(None, None) == "reference"

    def test_config_beats_env(self, choice, monkeypatch):
        monkeypatch.setenv(choice.env_var, "reference")
        # (explicit=None, config="vectorized") — the config field wins.
        assert choice.resolve(None, "vectorized") == "vectorized"

    def test_explicit_beats_config_and_env(self, choice, monkeypatch):
        monkeypatch.setenv(choice.env_var, "reference")
        assert choice.resolve("vectorized", "reference") == "vectorized"

    def test_empty_env_counts_as_unset(self, choice, monkeypatch):
        # CI matrix entries pass the variable through unconditionally.
        monkeypatch.setenv(choice.env_var, "")
        assert choice.resolve(None, None) == "vectorized"

    def test_unknown_names_rejected_wherever_they_enter(self, choice, monkeypatch):
        monkeypatch.delenv(choice.env_var, raising=False)
        with pytest.raises(ValueError, match=f"unknown {choice.kind}"):
            choice.resolve("bogus")
        with pytest.raises(ValueError, match=f"unknown {choice.kind}"):
            choice.resolve(None, "bogus")
        monkeypatch.setenv(choice.env_var, "bogus")
        with pytest.raises(ValueError, match=f"unknown {choice.kind}"):
            choice.resolve(None, None)

    def test_names(self, choice):
        assert choice.names == ("reference", "vectorized")


class TestSubsystemMirrors:
    """The per-subsystem literals and helpers delegate to the shared rule."""

    def test_timing_factory_mirrors_choice(self, monkeypatch):
        from repro.timing import factory

        assert factory.ENGINE_NAMES == TIMING_ENGINE_CHOICE.names
        assert factory.DEFAULT_ENGINE == TIMING_ENGINE_CHOICE.default
        monkeypatch.setenv("REPRO_TIMING_ENGINE", "reference")
        assert factory.default_engine_name() == "reference"
        assert factory.resolve_engine_name(None) == "reference"
        assert factory.resolve_engine_name("vectorized") == "vectorized"
        with pytest.raises(ValueError, match="unknown timing engine"):
            factory.resolve_engine_name("bogus")

    def test_insertion_frontier_mirrors_choice(self, monkeypatch):
        from repro.insertion import frontier

        assert frontier.DP_BACKEND_NAMES == DP_BACKEND_CHOICE.names
        assert frontier.DEFAULT_DP_BACKEND == DP_BACKEND_CHOICE.default
        monkeypatch.setenv("REPRO_DP_BACKEND", "reference")
        assert frontier.default_dp_backend() == "reference"
        assert frontier.resolve_dp_backend(None) == "reference"

    def test_routing_dme_arrays_mirrors_choice(self, monkeypatch):
        from repro.routing import dme_arrays

        assert dme_arrays.DME_BACKEND_NAMES == DME_BACKEND_CHOICE.names
        assert dme_arrays.DEFAULT_DME_BACKEND == DME_BACKEND_CHOICE.default
        monkeypatch.setenv("REPRO_DME_BACKEND", "reference")
        assert dme_arrays.default_dme_backend() == "reference"
        assert dme_arrays.resolve_dme_backend(None) == "reference"

    def test_create_engine_rejects_unknown(self, pdk):
        from repro.timing import create_engine

        with pytest.raises(ValueError, match="unknown timing engine"):
            create_engine(pdk, engine="bogus")

    def test_shared_dataclass_is_frozen(self):
        with pytest.raises(AttributeError):
            BackendChoice("x", "X", ("a",), "a").default = "b"


class TestGuardPolicyChoice:
    """The guard-policy knob rides the shared rule with its own names/default.

    It cannot join the parametrized :class:`TestPrecedence` class: its
    default is ``off``, not ``vectorized`` — the choice selects behaviours,
    not backends.
    """

    def test_definition(self):
        assert GUARD_POLICY_CHOICE.names == ("strict", "degrade", "off")
        assert GUARD_POLICY_CHOICE.default == "off"
        assert GUARD_POLICY_CHOICE.env_var == "REPRO_GUARD"

    def test_guard_module_mirrors_choice(self, monkeypatch):
        from repro.guard import policy

        assert policy.GUARD_POLICY_NAMES == GUARD_POLICY_CHOICE.names
        assert policy.GUARD_POLICY_DEFAULT == GUARD_POLICY_CHOICE.default
        monkeypatch.setenv("REPRO_GUARD", "strict")
        assert policy.resolve_guard_policy(None) == "strict"
        assert policy.resolve_guard_policy("degrade") == "degrade"

    def test_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_GUARD", raising=False)
        assert GUARD_POLICY_CHOICE.resolve(None, None) == "off"
        monkeypatch.setenv("REPRO_GUARD", "degrade")
        assert GUARD_POLICY_CHOICE.resolve(None, None) == "degrade"
        assert GUARD_POLICY_CHOICE.resolve(None, "strict") == "strict"
        assert GUARD_POLICY_CHOICE.resolve("off", "strict") == "off"
        monkeypatch.setenv("REPRO_GUARD", "")
        assert GUARD_POLICY_CHOICE.resolve(None, None) == "off"

    def test_unknown_policy_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_GUARD", raising=False)
        with pytest.raises(ValueError, match="unknown guard policy"):
            GUARD_POLICY_CHOICE.resolve("lenient")


ALL_BACKEND_ENV_VARS = (
    "REPRO_TIMING_ENGINE",
    "REPRO_DP_BACKEND",
    "REPRO_DME_BACKEND",
    "REPRO_GUARD",
)

#: (BackendSelection field, its shared choice) per knob.
SELECTION_FIELDS = (
    ("timing", TIMING_ENGINE_CHOICE),
    ("dp", DP_BACKEND_CHOICE),
    ("dme", DME_BACKEND_CHOICE),
    ("guard", GUARD_POLICY_CHOICE),
)


@pytest.fixture()
def clean_backend_env(monkeypatch):
    """No backend environment overrides, no prior deprecation warnings."""
    for name in ALL_BACKEND_ENV_VARS:
        monkeypatch.delenv(name, raising=False)
    _reset_deprecation_warnings()
    yield
    _reset_deprecation_warnings()


class TestConsolidatedBackendSelection:
    """``CtsConfig.backends`` is the one backend surface of the flow.

    Every knob resolves selection > environment variable > default, and the
    retired surfaces (loose config fields, the representation knob) are
    gone or inert.
    """

    def test_defaults_resolve_fully(self, clean_backend_env):
        resolved = CtsConfig().resolved_backends()
        assert resolved == ResolvedBackends(
            timing="vectorized", dp="vectorized", dme="vectorized", guard="off"
        )

    @pytest.mark.parametrize(
        "new,choice", SELECTION_FIELDS, ids=[new for new, _ in SELECTION_FIELDS]
    )
    def test_env_equals_new_selection(
        self, clean_backend_env, monkeypatch, new, choice
    ):
        value = "reference" if new != "guard" else "strict"
        monkeypatch.setenv(choice.env_var, value)
        from_env = CtsConfig().resolved_backends()
        monkeypatch.delenv(choice.env_var)
        consolidated = CtsConfig(
            backends=BackendSelection(**{new: value})
        ).resolved_backends()
        assert from_env == consolidated
        assert getattr(consolidated, new) == value

    def test_selection_beats_env(self, clean_backend_env, monkeypatch):
        monkeypatch.setenv("REPRO_DP_BACKEND", "reference")
        assert CtsConfig().resolved_backends().dp == "reference"
        config = CtsConfig(backends=BackendSelection(dp="vectorized"))
        assert config.resolved_backends().dp == "vectorized"

    def test_unknown_name_rejected_at_resolution(self, clean_backend_env):
        config = CtsConfig(backends=BackendSelection(dme="bogus"))
        with pytest.raises(ValueError, match="unknown DME backend"):
            config.resolved_backends()

    @pytest.mark.parametrize(
        "field", ["timing_engine", "dp_backend", "dme_backend", "guard"]
    )
    def test_loose_fields_are_gone(self, field):
        with pytest.raises(TypeError):
            CtsConfig(**{field: "reference"})

    def test_representation_is_ignored_and_warns_once(self, clean_backend_env):
        import warnings as _warnings

        with pytest.warns(DeprecationWarning, match="representation"):
            selection = BackendSelection(representation="object")
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            BackendSelection(representation="ir")
        assert not [w for w in caught if w.category is DeprecationWarning]
        assert CtsConfig(backends=selection).resolved_backends() == (
            CtsConfig().resolved_backends()
        )

    def test_consolidated_selection_never_warns(self, clean_backend_env):
        import warnings as _warnings

        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            CtsConfig(
                backends=BackendSelection(
                    timing="reference",
                    dp="reference",
                    dme="reference",
                    guard="degrade",
                )
            ).resolved_backends()
        assert not [w for w in caught if w.category is DeprecationWarning]

    def test_for_session_is_the_config_itself(self):
        config = CtsConfig(backends=BackendSelection(dp="reference"), workers=2)
        assert config.for_session() is config


class TestRouterConfig:
    """``config=`` is the router's only configuration surface."""

    def test_router_reads_the_config(self, clean_backend_env, pdk):
        from repro.routing.hierarchical import HierarchicalClockRouter

        config = CtsConfig(
            high_cluster_size=400,
            low_cluster_size=30,
            seed=9,
            hierarchical_routing=False,
            backends=BackendSelection(dme="reference"),
        )
        router = HierarchicalClockRouter(pdk, config=config)
        assert (router.high_cluster_size, router.low_cluster_size) == (400, 30)
        assert router.seed == 9
        assert router.hierarchical is False
        assert router.dme_backend == "reference"

    def test_loose_kwargs_are_gone(self, pdk):
        from repro.routing.hierarchical import HierarchicalClockRouter

        with pytest.raises(TypeError):
            HierarchicalClockRouter(pdk, seed=7)
