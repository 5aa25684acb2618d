"""Pinned sampled pairs: sha256 digests of harness._pair_bits outputs (the
x and y bit matrices and the pair indices) for the language of every sweep
family and for a lifted language over the inner-product gadget, so a change
to how a row draws its samples or fixes a lifted sample's class cannot move
a bit unseen."""

import hashlib

import numpy as np
import pytest

from twoway.boolfn import (
    ComposedFunction,
    and_gadget,
    eq_language,
    ints_language,
    ip_gadget,
    lifted_language,
    xor_fn,
)
from twoway.harness import _pair_bits

LANGUAGES = {
    "eq": eq_language,                      # eq-dfa, eq-pfa
    "ints": ints_language,                  # grover-ints
    "xor.and1": lambda n: lifted_language(ComposedFunction(xor_fn(n), and_gadget())),
    "xor.ip:2": lambda n: lifted_language(ComposedFunction(xor_fn(n // 2), ip_gadget(2))),
}
SIZES = (16, 64, 512, 1024)
SAMPLES = 12


def digest(arrays) -> str:
    """One sha256 over the arrays' dtypes, shapes and bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str} {a.shape}\n".encode())
        h.update(a.tobytes())
    return h.hexdigest()


PINS = {
    ("eq", 0): {
        16: "d7350874ab071da65952c08d72ad3156bc68adef2f25ecfad39e47f1454e2a2d",
        64: "4a552b373cd713dc73856a397bdc5b32fd4567921a7f65cb9097ddd479cfad48",
        512: "f6cd0db1cc478215d918d03162757aef804cb43477a5882e4d16248ad484787a",
        1024: "73cdad4f065cd3b84a7384fa6b100a2539d190144edd2d8352da10d485dd31f9",
    },
    ("eq", 1): {
        16: "279edb8baa4e9d24ef8e2a98745edb51ac898fd04abeaef947937f9df54bd3e2",
        64: "69e4a144d6b28e66a586867f1e5105f8fb4365e2c28978a13d1ef9bffba3dc11",
        512: "862b8eaad1df4d8418e713854e9e7fd10886a17ff41058a7a904a4d6ba097003",
        1024: "af6adac7eb6c2d14afcc8d46ec21f4361d5867fbb6ef2df3e56f1ed82d5d87af",
    },
    ("eq", 7): {
        16: "3018dd61f71034a8657a9689f593d50ef17c3cc179015f6d4005698a5b4f78da",
        64: "669bb0b82ee0ea7309032f32825f3c8baed6879028b0a14013df1dff4e2b1691",
        512: "7bafe53e29feefa6bcd612a8012f013087555266778c3d153f8c9dd119003cd5",
        1024: "c0a32ab5d7034bc22bd600eba2b484b12c92b8f6819b155c95b400b11d45f541",
    },
    ("ints", 0): {
        16: "ade950000f80fe48bd7052ef4fac6e4fb47310d668cc8f06f421357d746a2ef6",
        64: "6eaf9b91ea880779a605bdd30bc3cde1147fbba233fde06bd6eb0a6913207af3",
        512: "c6b2100f4bb7d6ec9e8663025493c8da6f10f54c17c4f0967622fa834e1d1982",
        1024: "db6c156b0f6111d5a92eb3f74f98e5153faeec7d72dc59be2a1e893df0ff3491",
    },
    ("ints", 1): {
        16: "d9e2b293f0c257055da07a4bf7c9a629f61671d6389077b1c2b5cd129954d473",
        64: "86af0778315fb2f8e19a2aab2756363cf51e76149359302b6b70c01d5574e787",
        512: "131d1edec886d62c7e48371ddea82332bf37c19be2f870c30f25c8e31e73f58b",
        1024: "fdfc4123c539790c93fbe56fa7e897bd049e3233781ffb3f7dda07792e9107ed",
    },
    ("ints", 7): {
        16: "73726482d864c51015e6def29edf9dc7b5ac5787571409baca335f09932933cd",
        64: "a8f3d04fd6dd0974e80579e23ad94e6ceab2d380be18db25d0ff8024b17a0d44",
        512: "deacf81c105957a8c53839e10d50cb112cb05b1e1d9897e3d99469926fed783f",
        1024: "d5ac76091d5f4bae474ff99b68b121959006d413cd59352dfaa410e574204089",
    },
    ("xor.and1", 0): {
        16: "c2a1a57965d3b2097f4bc978e24d56f0571dbbb8d7d6b40607713587550507b5",
        64: "7329d2ea53334ab674771bed6c2262de315ff1952d60b11331e5b6fe5574f4a8",
        512: "4e9867c622116a710e5ab7bb557524b7564f1efe1d82e14993d8e13ecac344dd",
        1024: "57ac37ce8cb23e4fee8f779d134af504c76571f8543c8495237dd35ae337a549",
    },
    ("xor.and1", 1): {
        16: "fda9a44b18e3f947ab348b353aca7b1af484e968925c5f44f58a3f6207e1e0aa",
        64: "409c43042d4b98924c16b1c117e4a1e92bc89257fffdf3eef89e88095f10ed3f",
        512: "2e1743a518a6065968116d17487ba0b994b0ae7a0942338921eca8f87d3525df",
        1024: "c788cedadf81dfb50bb251b0ba3e3d2e6013a95cd037df39ebbf202bfd0c0727",
    },
    ("xor.and1", 7): {
        16: "c7b770b4c98620effeb835c7414d18b1af1efe8c1a7acd22851d5dd2f0914ca9",
        64: "6921ee906e2df002adbc6c8becfcb461dc80f0068e67336b1bcfaea67eba9599",
        512: "0edaf8601ec346275a2a5c4f5d3c6bc915b26241f1aa228d1b76d26fe52852c6",
        1024: "73e08c138c5dde732f1456aeddbfb72b47959f01f9657793cc4350157d653344",
    },
    ("xor.ip:2", 0): {
        16: "0483f70fa9137827644a099ad9856362a222eaa71fd68889b5f9416a9f569814",
        64: "9400c0e54b6b332e7f2e9f33789dbd0d6d93737ab6cc0676f5020e84c464c98a",
        512: "bcbab5111ca9bf9fae3ef4889965c823df12409231cf7f43bae8235e73a4c084",
        1024: "f08eedacab17aaa82d616f2815c7ee301e8caca65ef5ee978c99bfe905432255",
    },
    ("xor.ip:2", 1): {
        16: "275b3455d1247a7fd96bb1b0124890a1d1457dc67f941fa92c4c83ad33977c27",
        64: "c29ca79b5ccc3c4a190d6781c41a799cb4263d81dfad32523065672cd7217959",
        512: "e894f0849438883e537e503b1b4375cb2c32be5364bb9c4327b2e7de2acb31dc",
        1024: "764bbc5b4bc32500ccdd04a8f8d24e5da2c872993f0cd29201b954e8ad8b62a9",
    },
    ("xor.ip:2", 7): {
        16: "3834d52aff1d08c7dc744e9e1a8f7884f7b8580454c4070d92b3ac8a1a8387d8",
        64: "a75cab6abbc32726ea6842e7393758014718afa38a57ec1dc36a9a687f5af0e8",
        512: "686e51e672d42009359150ffc0266d1850a4644b493debe9fa29770c5ff48da3",
        1024: "268357d4bf6b9791575d26aceb9a4694e0c62fe302476c361a7a85b6dde62aac",
    },
}


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", list(LANGUAGES))
def test_sampled_pairs_are_pinned(name, seed):
    got = {n: digest(_pair_bits(LANGUAGES[name](n), n, SAMPLES, seed)) for n in SIZES}
    assert got == PINS[name, seed]
