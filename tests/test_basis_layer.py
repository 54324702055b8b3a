"""Bit-identity goldens and storage structure of the basis layer.

The sha256 digests were recorded before the bases moved to one element
stack, the POB build to its diagonal-M form and the composite operators to
one sum over A_i (x) A_i^*; these rewrites must not move a bit of the
stacks, the POB expansion maps, LAMBDA, T or SIGMA.
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
    ("ggb", 2): "17fe1eae06a688fc6315c9b9de29774ca2defd32d90d5d32d0b8330b002e0aa2",
    ("ggb", 3): "23b8c4f28bd6c1f06e5ca9d06d098486270c67bf526ed29c84910bf7f7023e6d",
    ("ggb", 4): "2735f3724615d0c78fae536ef867ed2f5310e208bdbd9f6448165f0bb7b6073b",
    ("ggb", 5): "207f50de9ca6dffe5c6b3b6dbd5150a59be90069c516237378682b688ca22197",
    ("ggb", 6): "11e14eb9ddfa941abff378882dadca221407ae2a693ced92d006a319b499484d",
    ("ggb", 7): "822a8c6828f37ca645719923150dd25a0af0d6649020131949c9292d60f0148f",
    ("ggb", 8): "f2319211c2742735da5b55cdc0b67e28e3369ef6bf56c1eb3f191cbca41813f7",
    ("ggb", 9): "e5427e995678a2e0a516e9bf441a102c801768bc446dc1923a09f134b85098ca",
    ("ggb", 10): "8a68e32bfe58c945d26048ae3c9201f1edbc67d30f3fb8d77035a1bedc80118c",
    ("ggb", 11): "04df44eaff6a99898c49d0d901efa8509fca8c44c8e1e3472fc2cbcf38500db6",
    ("ggb", 12): "f29ee49d001822aff7f5c214601ad2033de38ae1c5ea9f9b9af87c9b2a9cc10d",
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
