"""Seeded command output stays byte-identical.

Each command runs ``cli.main`` in-process with stdout captured, and the
md5 of what it printed is compared with the value pinned when the output
was last known good.  A change that alters seeded output on purpose
updates the pinned hash and says why.

The hashes are pinned for the numpy and BLAS they were measured with:
numpy 2.4 with its bundled OpenBLAS 0.3.31 (DYNAMIC_ARCH, Haswell
kernels) on x86-64.  Another numpy or BLAS may round a last digit
differently and fail here without any change to the program.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from bruhatdiag import cli
from bruhatdiag.bruhat import cross_check
from bruhatdiag.linalg import matrix_to_json
from bruhatdiag.spaces import (
    FAMILIES,
    FAMILY,
    SpaceSpec,
    build_tangent,
    coordinates_from_json,
    coordinates_to_json,
    random_coordinates,
    spec_from_family,
)

CII_PAYLOAD = ('{"family": "CII", "params": {"p": 2, "q": 1}, "payload": '
               '{"Z1": [[[0.3, -0.1]], [[-0.2, 0.25]]], "Z2": [[[0.15, 0.4]], [[0.05, -0.35]]]}}')
BDI_ODDODD_PAYLOAD = ('{"family": "BDI_oddodd", "params": {"p": 3, "q": 5}, "payload": '
                      '{"Z1": [[[0.2, 0.1], [-0.3, 0.05]]], "Z2": [[[0.1, -0.25], [0.4, 0.2]]], '
                      '"w1": [[0.15, -0.2]], "w2": [[-0.1, 0.3], [0.25, 0.05]], "s": 0.35}}')
#: Zero entries of both signs and a negative torus parameter: ``build``
#: prints every signed zero of the tangent.
BDI_ODDODD_ZEROS_PAYLOAD = (
    '{"family": "BDI_oddodd", "params": {"p": 3, "q": 5}, "payload": '
    '{"Z1": [[[0.2, 0.0], [-0.0, 0.05]]], "Z2": [[[0.0, -0.25], [0.4, -0.0]]], '
    '"w1": [[-0.0, 0.0]], "w2": [[-0.1, 0.0], [0.0, -0.3]], "s": -0.35}}')
#: BDI_oddodd(3, 1): Z1 (1 x 0) and w2 (length 0) are empty blocks written
#: ``[]``, and Z2 (1 x 0) is written in its nested form ``[[]]``.
BDI_ODDODD_EMPTY_PAYLOAD = ('{"family": "BDI_oddodd", "params": {"p": 3, "q": 1}, "payload": '
                            '{"Z1": [], "Z2": [[]], "w1": [[0.1, 0.2]], "w2": [], "s": 0.3}}')
AIII_PAYLOAD = ('{"family": "AIII", "params": {"m": 2, "n": 3}, "payload": {"Z": '
                '[[[0.3, 0.1], [-0.2, 0.4], [0.1, -0.3]], [[0.25, -0.15], [0.05, 0.2], [-0.35, 0.1]]]}}')
CI_PAYLOAD = ('{"family": "CI", "params": {"n": 2}, "payload": '
              '{"Z": [[[0.3, 0.1], [0.2, -0.4]], [[-0.15, 0.25], [0.3, 0.1]]]}}')
#: DIII(3) and CI(2) with zero entries of both signs: their builds carry the
#: reflection's sign flips of the payload, signed zeros included.
DIII_ZEROS_PAYLOAD = (
    '{"family": "DIII", "params": {"n": 3}, "payload": '
    '{"Z": [[[0.3, -0.1], [-0.2, 0.0], [0.0, -0.0]], [[0.15, -0.0], [-0.0, 0.0], [0.2, -0.0]], '
    '[[0.0, 0.0], [-0.15, 0.0], [-0.3, 0.1]]]}}')
CI_ZEROS_PAYLOAD = ('{"family": "CI", "params": {"n": 2}, "payload": '
                    '{"Z": [[[-0.0, 0.2], [0.0, -0.0]], [[0.35, -0.0], [-0.0, 0.2]]]}}')
MATRIX = ('{"n": 3, "entries": [[[2, 0.5], [1, -1], [0.5, 0]], [[-1, 0.25], [3, 0], [1, 1]], '
          '[[0.5, -0.5], [2, 0.75], [4, -1]]]}')

PINNED = {
    "verify": (("verify", "--format", "json"),
               "8ebabdc5f222bb01a5e536d9232a42a3"),
    "golden": (("golden", "--suite", "all", "--format", "json"),
               "47ca26447d0120b8ed5ec954dd47fc1e"),
    "golden_table": (("golden", "--suite", "all", "--format", "table"),
                     "d9730910797e7bcfe5b09e74fa927f85"),
    "enumerate_aiii_limits": (("enumerate", "--family", "AIII", "--m", "3", "--n", "3",
                               "--check-limits", "--format", "json"),
                              "61b22015edbc772b65f201922f72a9c4"),
    "enumerate_ci_8_limits": (("enumerate", "--family", "CI", "--n", "8",
                               "--check-limits", "--format", "json"),
                              "0f22eae697ef5e2f669bd6d1446261f3"),
    "enumerate_aiii_5_5_limits": (("enumerate", "--family", "AIII", "--m", "5", "--n", "5",
                                   "--check-limits", "--format", "json"),
                                  "f412649474737528617ed21a2c428b8f"),
    # the four mirrored layouts, whose witnesses fill a mirrored pair
    "enumerate_diii_4_limits": (("enumerate", "--family", "DIII", "--n", "4",
                                 "--check-limits", "--format", "json"),
                                "716c142d629b96c2c0f68d7fe373646e"),
    "enumerate_cii_2_2_limits": (("enumerate", "--family", "CII", "--p", "2", "--q", "2",
                                  "--check-limits", "--format", "json"),
                                 "6a1ea6cf9a5fb99cbb5ec62dad36e6c9"),
    "enumerate_bdi_even_limits": (("enumerate", "--family", "BDI_even", "--p", "4", "--q", "3",
                                   "--check-limits", "--format", "json"),
                                  "7d8615898cf8577818fdb22a8bb3836b"),
    "enumerate_bdi_oddodd_limits": (("enumerate", "--family", "BDI_oddodd", "--p", "3",
                                     "--q", "5", "--check-limits", "--format", "json"),
                                    "d7785fec91c9b988e8c381181655edee"),
    "enumerate_bdi_oddodd": (("enumerate", "--family", "BDI_oddodd", "--p", "3", "--q", "5",
                              "--format", "json"),
                             "708819b070cc409a9d4fa5cbd66dcf74"),
    "verify_aiii_5_45": (("verify", "--family", "AIII", "--m", "5", "--n", "45",
                          "--draws", "20", "--format", "json"),
                         "dfd5bdc925ebcc6c88324a7c1c507c83"),
    "d_all_cii": (("d", "--method", "all", "--payload", CII_PAYLOAD),
                  "8eb35346c4f9534ce64928be2bb88f69"),
    "d_all_bdi_oddodd": (("d", "--method", "all", "--payload", BDI_ODDODD_PAYLOAD),
                         "cf47634322061a27899f6c3b800654c0"),
    "d_all_bdi_oddodd_empty_blocks": (("d", "--method", "all", "--payload",
                                       BDI_ODDODD_EMPTY_PAYLOAD),
                                      "17e786d3ce6ef9055e1a2da4df17efd7"),
    "d_coroot_product": (("d", "--method", "coroot_product", "--payload", AIII_PAYLOAD),
                         "c273f2fbb60f1a4e7d178cdf9115ddb2"),
    "d_coroot_product_ci": (("d", "--method", "coroot_product", "--payload", CI_PAYLOAD),
                            "57dcaece286b61b74a04d670a18cee97"),
    "build_bdi_oddodd_zeros": (("build", "--payload", BDI_ODDODD_ZEROS_PAYLOAD),
                               "a7854d1ff7162ee39d8e1a9b488430b1"),
    "build_cii": (("build", "--payload", CII_PAYLOAD), "18feb9be83c291d432ec38bafc797062"),
    "build_diii_zeros": (("build", "--payload", DIII_ZEROS_PAYLOAD),
                         "97141d89cdc36bfe7df379e87f408ac3"),
    "build_ci": (("build", "--payload", CI_PAYLOAD), "fbda01220f2e17811ba8594005de2e66"),
    "build_ci_zeros": (("build", "--payload", CI_ZEROS_PAYLOAD),
                       "d5f2d1f20caa8f999c2377e07fbbcec0"),
    "factorize": (("factorize", "--matrix", MATRIX), "22c30ef5dd0bf38d8674feaaef914e13"),
    "verify_rep_6": (("verify-rep", "--n", "6"), "883a4685ab81f6b3f34f878f42059f0d"),
    "verify_rep_6_table": (("verify-rep", "--n", "6", "--format", "table"),
                           "1fb6090fb76fa47ca30a853cac1e7869"),
}


@pytest.mark.parametrize("argv,digest", list(PINNED.values()), ids=list(PINNED))
def test_seeded_output_is_pinned(argv, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0
    assert hashlib.md5(out.getvalue().encode()).hexdigest() == digest


def test_json_array_form_is_pinned():
    """The JSON array form of coordinates, tangents and route reports stays
    byte-identical, and reading coordinates back writes the same bytes.

    Five seeded draws of each ``verify`` default, of AIII(1, 1) and of the
    BDI_oddodd layouts with empty blocks, (1, 1), (3, 1) and (1, 3).
    """
    specs = [spec_from_family(f, **FAMILY[f].defaults) for f in FAMILIES]
    specs += [SpaceSpec("AIII", m=1, n=1)] + [
        SpaceSpec("BDI_oddodd", p=p, q=q) for p, q in ((1, 1), (3, 1), (1, 3))]
    digest = hashlib.md5()
    for spec in specs:
        rng = np.random.default_rng(0)
        for _ in range(5):
            coords = random_coordinates(spec, rng)
            obj = coordinates_to_json(spec, coords)
            X = build_tangent(spec, coords)
            report = cross_check(X, spec)["cayley_det"]
            text = json.dumps([obj, matrix_to_json(X), report.to_json_dict()], sort_keys=True)
            digest.update(text.encode())
            assert json.dumps(coordinates_to_json(*coordinates_from_json(obj))) == json.dumps(obj)
    assert digest.hexdigest() == "86522977e5656bdd6675d6de2baf5a8c"


def test_payload_stream_is_pinned():
    """The random payload stream stays byte-identical: the JSON of the
    first 20 ``random_coordinates`` draws at seed 0 of each ``verify``
    default and of the smallest DIII, CI, CII and BDI layouts (BDI(1, 1)
    and BDI(2, 1) have empty blocks)."""
    specs = [spec_from_family(f, **FAMILY[f].defaults) for f in FAMILIES]
    specs += [SpaceSpec("DIII", n=1), SpaceSpec("CI", n=1), SpaceSpec("CII", p=1, q=1),
              SpaceSpec("BDI_oddodd", p=1, q=1), SpaceSpec("BDI_even", p=2, q=1)]
    digest = hashlib.md5()
    for spec in specs:
        rng = np.random.default_rng(0)
        for _ in range(20):
            obj = coordinates_to_json(spec, random_coordinates(spec, rng))
            digest.update(json.dumps(obj, sort_keys=True).encode())
    assert digest.hexdigest() == "55fcc3a496e21566d1b05064f3759a98"
