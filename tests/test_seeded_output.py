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

import pytest

from bruhatdiag import cli

PINNED = {
    "verify": (("verify", "--format", "json"),
               "afff9bc465e3c822b3584d7be8fdb74f"),
    "golden": (("golden", "--suite", "all", "--format", "json"),
               "c15d4c99ed16f0583ca84f6131931c9b"),
    "enumerate_aiii_limits": (("enumerate", "--family", "AIII", "--m", "3", "--n", "3",
                               "--check-limits", "--format", "json"),
                              "e8211a1636041a90f020a5a22cb7a371"),
    "enumerate_ci_8_limits": (("enumerate", "--family", "CI", "--n", "8",
                               "--check-limits", "--format", "json"),
                              "bf3744b99456a638ae94e4fdeb5a8671"),
    "enumerate_aiii_5_5_limits": (("enumerate", "--family", "AIII", "--m", "5", "--n", "5",
                                   "--check-limits", "--format", "json"),
                                  "0a1e48b02915a63eef4e2581e5e97763"),
    "enumerate_bdi_oddodd": (("enumerate", "--family", "BDI_oddodd", "--p", "3", "--q", "5",
                              "--format", "json"),
                             "708819b070cc409a9d4fa5cbd66dcf74"),
    "verify_aiii_5_45": (("verify", "--family", "AIII", "--m", "5", "--n", "45",
                          "--draws", "20", "--format", "json"),
                         "78a987af6a90f70b3c58ce80d3465393"),
}


@pytest.mark.parametrize("argv,digest", list(PINNED.values()), ids=list(PINNED))
def test_seeded_output_is_pinned(argv, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0
    assert hashlib.md5(out.getvalue().encode()).hexdigest() == digest
