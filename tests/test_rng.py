"""Named RNG streams: determinism and isolation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import RngRegistry, derive_seed, pcg64_states


class TestDeriveSeed:
    def test_same_inputs_same_state(self):
        a = derive_seed(7, "fading/link-3")
        b = derive_seed(7, "fading/link-3")
        assert a.generate_state(4).tolist() == b.generate_state(4).tolist()

    def test_different_names_differ(self):
        a = derive_seed(7, "fading/link-3")
        b = derive_seed(7, "fading/link-4")
        assert a.generate_state(4).tolist() != b.generate_state(4).tolist()

    def test_different_master_differ(self):
        a = derive_seed(7, "x")
        b = derive_seed(8, "x")
        assert a.generate_state(4).tolist() != b.generate_state(4).tolist()


class TestRngRegistry:
    def test_stream_cached(self):
        reg = RngRegistry(1)
        assert reg.stream("a") is reg.stream("a")

    def test_reproducible_across_registries(self):
        r1 = RngRegistry(42).stream("traffic/node-0")
        r2 = RngRegistry(42).stream("traffic/node-0")
        np.testing.assert_array_equal(r1.random(16), r2.random(16))

    def test_construction_order_irrelevant(self):
        ra = RngRegistry(9)
        rb = RngRegistry(9)
        # Touch streams in different orders.
        ra.stream("one"), ra.stream("two")
        rb.stream("two"), rb.stream("one")
        np.testing.assert_array_equal(
            ra.stream("one").random(8), rb.stream("one").random(8)
        )

    def test_streams_are_independent(self):
        reg = RngRegistry(3)
        a = reg.stream("a").random(1000)
        b = reg.stream("b").random(1000)
        # Not identical, and essentially uncorrelated.
        assert not np.allclose(a, b)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngRegistry(-1)

    def test_names_and_contains(self):
        reg = RngRegistry(0)
        reg.stream("alpha")
        assert "alpha" in reg
        assert "beta" not in reg
        assert "alpha" in reg.names()

    def test_master_seed_property(self):
        assert RngRegistry(17).master_seed == 17


class TestBulkStates:
    """``pcg64_states`` must equal numpy's ``derive`` seeding, bit for bit.

    This is the check that catches a numpy release that changes
    ``SeedSequence`` or PCG64 seeding: the bulk path re-implements both.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        # 1-word, 2-word, ... up to more-than-4-word seed entropy.
        master_seed=st.integers(min_value=0, max_value=2**130 - 1),
        names=st.lists(
            st.one_of(
                st.text(max_size=12),  # empty and non-ASCII names
                st.sampled_from(["dynamics/churn/0", "fading/link-3", "é"]),
            ),
            max_size=8,
        ),
    )
    def test_matches_numpy_derivation(self, master_seed, names):
        names = names + names[:2]  # duplicate names
        reg = RngRegistry(master_seed)
        states = pcg64_states(master_seed, names)
        assert len(states) == len(names)
        bitgen = np.random.PCG64(0)
        bulk = np.random.Generator(bitgen)
        for name, (state, inc) in zip(names, states):
            ref = reg.derive(name)
            assert ref.bit_generator.state["state"] == {"state": state, "inc": inc}
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            assert bulk.random() == ref.random()
            assert bulk.exponential(2.5) == ref.exponential(2.5)
            assert bulk.standard_normal() == ref.standard_normal()

    def test_word_boundary_seeds(self):
        names = ["", "a", "dynamics/churn/9999"]
        for seed in (0, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128, 2**160):
            reg = RngRegistry(seed)
            starts = [reg.derive(n).bit_generator.state["state"] for n in names]
            expect = [(s["state"], s["inc"]) for s in starts]
            assert pcg64_states(seed, names) == expect

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            pcg64_states(-1, ["a"])
