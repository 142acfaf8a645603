import pytest

from micpkit.bruteforce import brute_force, brute_force_two_stage
from micpkit.errors import ModelError
from micpkit.generate import generate_instance
from micpkit.model import check_assumptions
from micpkit.modelio import dumps, to_document
from micpkit.twostage import TwoStageInstance


def test_deterministic_bytes():
    for profile in ("micp-smooth", "micp-separable", "twostage-small"):
        a = dumps(to_document(generate_instance(11, profile)))
        b = dumps(to_document(generate_instance(11, profile)))
        assert a == b
        c = dumps(to_document(generate_instance(12, profile)))
        assert c != a


def test_planted_point_keeps_instances_feasible():
    for seed in range(20):
        inst = generate_instance(seed, "micp-smooth")
        assert brute_force(inst).status == "optimal"
    for seed in range(6):
        inst = generate_instance(seed, "twostage-small")
        assert brute_force_two_stage(inst).status == "optimal"


def test_twostage_profile_bounds():
    for seed in range(8):
        inst = generate_instance(seed, "twostage-small")
        assert isinstance(inst, TwoStageInstance)
        assert 2 <= len(inst.scenarios) <= 4
        assert inst.l1 <= 4


def test_separable_profile_satisfies_product_form():
    # every row and a convex objective, if any, pass (the check raises otherwise)
    for seed in range(8):
        assert check_assumptions(generate_instance(seed, "micp-separable")) is None


def test_unknown_profile():
    with pytest.raises(ModelError):
        generate_instance(0, "nope")
