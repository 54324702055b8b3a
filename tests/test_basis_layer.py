"""Bit-identity goldens and storage structure of the basis layer.

The sha256 digests were recorded before the bases moved to one element
stack, the POB build to its diagonal-M form and the composite operators to
one sum over A_i (x) A_i^*; these rewrites must not move a bit of the
stacks, the POB expansion maps, LAMBDA, T or SIGMA. The GGB stacks were
re-recorded once the antisymmetric elements' -i entries lost their negative
zero real part.
"""

import hashlib

import numpy as np
import pytest

import quditbloch as qb
from quditbloch import cg
from quditbloch.bases import expand_standard_pob, pob_basis


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


STACKED = {
    ("ggb", 2): "1ce5543e957df57040db329e164c941747412e6bbcc2a42e089b412dfa5633ec",
    ("ggb", 3): "4a8cac1fc922ba7be2865f7f3a9d320360cc9601385bf84bea2ee5f61e013713",
    ("ggb", 4): "33befeb55f3ac6171373d11b51326e61b9e7f91e18e13c3e64fed637ebcb7648",
    ("ggb", 5): "68af5eeb304763344015ff5eea803e1dd30c8b7d55c6e5e9faf70ad5f5bf93e7",
    ("ggb", 6): "9b5a18219cef23bbe73f6c7ec37c11501ec74ebf198378cbc67fe89415952b89",
    ("ggb", 7): "b94217e36f20d89b82a05c3389388719166f4653457abea7e8bf2a80fe9c5dd1",
    ("ggb", 8): "e8d6ba96f44a27b7318ebcd21e6b9007b4af7f21646db7897ea64a9d8913c209",
    ("ggb", 9): "ba424d6d676a21200e2c0a5835781cb3e102dcc852d98c48bfbd447d6074a6cb",
    ("ggb", 10): "1504b5fc0b6feeae827cd6f6d21bffc61ef72cfff2d70a6af0d7d024198b50a9",
    ("ggb", 11): "acf38bee561b63d4ffe174131b34517d03ae47b31a8ae8aaff8fed283b765730",
    ("ggb", 12): "44627c2c1708baec3fad880ee322f8846187134d1e06a51953602985c7862e57",
    ("pob", 2): "6b2447e5b48fa75393cfeb7b634e7dfaaeb7298b1917bab2ae07426e8cebece0",
    ("pob", 3): "a74c0d640bc840ad0b739bb2f94cb5482ed8ab8a15f3f5e5d789b4ffc652bc08",
    ("pob", 4): "a1a4191a29413bfa2bb4dad9f5242dae087f35614cb5ea3ebdd3174b56bee85a",
    ("pob", 5): "6e0c0aa4bef879a56e6f957f7d7ef014fa2f4a33968d94872327aa6c6d9b0b19",
    ("pob", 6): "c6d6b6877481ce4b70809565743c0acc2c36f37b91526721beb5d0d77eccf879",
    ("pob", 7): "0e5c17459d22e702109261232aa52a9d00b329b772716241fbc3fd1100fc39fa",
    ("pob", 8): "36d40a7c1c9ec3d83491516bcc4c24cd8b7c84ea39d299af166326f55dd603eb",
    ("pob", 9): "f809c56fae554cd35bbe1efe1492153fc50dfa2d2154869312f9827795228f2c",
    ("pob", 10): "b3c9e63f49fbfd74496daa4d653c1d4ca3b925e811712ac274c1cddf853ecf14",
    ("pob", 11): "f00269b2402e50edf50cbcf02f1e09bc76fbca21c8123e0ee29c441b9fcf9681",
    ("pob", 12): "26e0d06dbfbd83dcaeda2da32267cbce953fbc65cf813b1e67c99b610f1891b1",
    ("wob", 2): "db0310c326e5e1d3ed37c64921975b814df213dbb7f0ae8d1f248ef71c547a34",
    ("wob", 3): "4dab0e8dcc5812c03f9100a0c94bd1e5a08bf13c2ecf06d3108a6aac32d3540c",
    ("wob", 4): "d7db90c3270f0eeb37362473d2560ce2bfe310aea4c48dbc6df23fa44733dc2f",
    ("wob", 5): "472ae7b79ade12bc0fc42613c0771bb34459ce4e66b534019e8a4110d8492c03",
    ("wob", 6): "fcefa0b7cd66a5e7cfa378bd2caa71827d0bc6904796efe68fa6de3595c03da7",
    ("wob", 7): "ea358d76f1e90dfd950ffbdf05e008732b49a1b27c608305b88ae57572404c46",
    ("wob", 8): "4b894dcd66ed27117278b787d87e5994563f5839d5fa49f5d8c2111d76e6a5a5",
    ("wob", 9): "82f8eec13134b176a3329ae29eb386dc74fcc1ca3c0bf380070146c2b6ac64cf",
    ("wob", 10): "0b13a8a4e267c6fdcfc8eaa28ce5d6533066023d5f63f1454a7e2278aa13f881",
    ("wob", 11): "859fa9907ab51dd9cf14d08cec3200e138fc5429502eedf4a527701e5c97595b",
    ("wob", 12): "6550e301621a472b88a3b810551a5e40f773639d4a07e85cc5366b2a66048a02",
}

COMPOSITE = {
    ("lambda", 2): "104b89706e9bdb5c70899b785374628a7afef896cc6b04d97e7e06e6c21013af",
    ("lambda", 3): "81df92271d4ac868b7e4fe0c3a6c4111822e1ad80bbb52ed7de5da7bd3069230",
    ("lambda", 4): "736e795697e7f0252536af5c005073ea95790d9d2ed9eee27686f03b287b503f",
    ("lambda", 5): "86ea39f7405cb32e938b0393673063b158f0d31a19b3c40ac7f8b1d55a0a9790",
    ("lambda", 6): "778a8128d07a0f8e29f4283fdd30158b3d005f2deacbbddaedc4bf0b3a2792a6",
    ("lambda", 7): "b7c04a3d9fb2cbcb0c3a6dca749f6bcf3d171cc3d71e97273e90ee320ac3ba34",
    ("lambda", 8): "ba0b4a10dbad8beb0bcd5532fe4e3d3a8ed9a91be22450b8c614e932d06bbe97",
    ("t", 2): "87ccb691d51aa2834d8131715ddceb56d1252f3be29d6952a2b2138c043a16ca",
    ("t", 3): "7ff0115ce66946f0e2fab2f2f7296ad3103952ed9bc9d941487bcd894beda61b",
    ("t", 4): "c039f7b4e6ccb7ab6420273a068e18bcb7396552541aaacdc75ab684d10cfc9f",
    ("t", 5): "1a65e66e4aaf33b98f3efa276f0d8416a00f4fdad679bc87672402a5bf4f7b57",
    ("t", 6): "d3014c0dfb06baed72880e71558954d7a2cadb85d9bbf1bd183878eecead289a",
    ("t", 7): "9843904ef4e4812c98882c64d53fb406bba87d91fe43f1acf62a1eb25f166363",
    ("t", 8): "61d871f378e406a6b9a2aa042b8fd609d27f102a4bfc22835955e1c0c91ddf43",
    ("sigma", 2): "104b89706e9bdb5c70899b785374628a7afef896cc6b04d97e7e06e6c21013af",
}

# repr of the list of expand_standard_pob(d, i, j) maps, i and j ascending
POB_EXPANSIONS = {
    2: "128efc09fc5a8872be809ab3cdaaca36436a7e8eb40674644db2eb6f43620712",
    3: "c8cfbe0c74867c96cc099d92be1524b724528b3dab29ec583d1d386b8037a960",
    4: "c946edf531b0634c8bf843b662a397d9224648e8e0507e5dd8cec60549aa26aa",
    5: "aa40121d32d14e7f197d30f315452e39670cc42aa8e6da827923487148bf6847",
    6: "bfb564ed23dd1d6524ef55d4964290c1eda8527848c4bb8d819d9edf33b315d3",
    7: "c0f6f1f5533ede0c29c392e545c9e14e97523b3a92f8e96c85f0fb81c3830850",
    8: "82cfa7a9b5480bb0e6be3e42db46ee9188e8f89811511f2d4a5621d2f0627376",
    9: "c344d3ef385521121f161fa9f8e2f018b6e2c569f508b27ed08abf5b5e3c74aa",
}


# recorded with the Fraction Racah sum and every T_LM filled from its own
# Clebsch-Gordan lookups, before the integer sum and the T_{L,-M} mirror;
# d = 13..16 is the range the dim_scan benchmark builds cold
POB_STACKED_LARGE = {
    13: "31967dffff367a6a0fdfbcda11b74e6bedb91bb6e4087ca83315b945930e8976",
    14: "8620d0b37b07a55e8a537aa4b1242001b2d098dccc2dc964783a5f71d521e317",
    15: "da207ed0528bcf1001eb12cfdcf10f784496e6c2a75ec6861d4467018ef82acc",
    16: "a3874ef8bfe5d2f3b16e10f3b5dd54c89485d0d4805355a96867a26e89a3affa",
    20: "8386b2843d2f218773328a6375377c38055eb08b5dae759b0707dd5a6df8bc5d",
}


@pytest.mark.parametrize("kind,d", sorted(STACKED))
def test_stacked_bytes(kind, d):
    assert sha256(qb.get_basis(kind, d).stacked.tobytes()) == STACKED[(kind, d)]


@pytest.mark.parametrize("d", sorted(POB_STACKED_LARGE))
def test_pob_stacked_bytes_large_d(d):
    assert sha256(pob_basis(d).stacked.tobytes()) == POB_STACKED_LARGE[d]


@pytest.mark.parametrize("d", [2, 3, 4, 7, 12, 16])
def test_pob_negative_m_is_the_signed_transpose(d):
    # T_{L,-M} = (-1)^M T_LM^T exactly, and no entry is a negative zero
    basis = pob_basis(d)
    stack = basis.stacked
    assert not np.signbit(stack.real[stack.real == 0]).any()
    assert not np.signbit(stack.imag).any()
    for L in range(d):
        for M in range(1, L + 1):
            plus, minus = basis.element((L, M)), basis.element((L, -M))
            assert np.array_equal(minus, (-1) ** M * plus.T)


@pytest.mark.parametrize("kind,d", sorted(COMPOSITE))
def test_composite_bytes(kind, d):
    assert sha256(qb.composite_operator(kind, d).tobytes()) == COMPOSITE[(kind, d)]


@pytest.mark.parametrize("d", sorted(POB_EXPANSIONS))
def test_pob_expansion_maps(d):
    maps = [expand_standard_pob(d, i, j) for i in range(1, d + 1) for j in range(1, d + 1)]
    assert sha256(repr(maps).encode()) == POB_EXPANSIONS[d]


@pytest.mark.parametrize("d", [2, 5, 9])
def test_pob_build_needs_at_most_d_cubed_clebsch_gordan_entries(d):
    # the selection rule leaves one nonzero diagonal per T_LM
    cg._cg_cached.cache_clear()
    pob_basis.__wrapped__(d)
    assert cg._cg_cached.cache_info().currsize <= d ** 3


@pytest.mark.parametrize("d", [2, 5, 9, 16])
def test_pob_build_looks_up_only_nonnegative_m(d):
    # T_{L,-M} is mirrored from T_LM, so only the d - M entries of each
    # M >= 0 diagonal reach the Clebsch-Gordan engine
    cg._cg_cached.cache_clear()
    pob_basis.__wrapped__(d)
    bound = sum(d - M for L in range(d) for M in range(L + 1))
    assert cg._cg_cached.cache_info().currsize <= bound


@pytest.mark.parametrize("kind", ["ggb", "pob", "wob"])
@pytest.mark.parametrize("d", [2, 3, 6])
def test_elements_are_rows_of_the_stack(kind, d):
    basis = qb.get_basis(kind, d)
    assert basis.stacked.shape == (d * d, d, d)
    assert not basis.stacked.flags.writeable
    for i, el in enumerate(basis.elements):
        assert np.shares_memory(el, basis.stacked)
        assert not el.flags.writeable
        assert el.tobytes() == basis.stacked[i].tobytes()


@pytest.mark.parametrize("kind,d", [("u", d) for d in range(2, 9)] + [("u1", 3), ("u2", 3)])
def test_weyl_sums_match_the_shifted_label_form(kind, d):
    # U_lm^* = U_{-l,m}; the two forms differ only by rounding of the phases
    basis = qb.wob_basis(d)
    ms = {"u": range(d), "u1": range(1, d), "u2": [0]}[kind]
    ref = np.zeros((d * d, d * d), dtype=complex)
    for (l, m) in basis.labels[1:]:
        if m in ms:
            ref += qb.tensor(basis.element((l, m)), basis.element(((-l) % d, m)))
    assert np.abs(qb.composite_operator(kind, d) - ref).max() <= 1e-13
