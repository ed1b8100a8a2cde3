import hashlib

import numpy as np
import pytest

from binreg.cli import main
from binreg.rng import CounterRng

# The first three draws of fresh streams, as the scalar SplitMix64 code wrote
# them; 2**64 - 1 makes seed + counter * golden wrap mod 2**64 at once. Seed
# 0's first u64 is SplitMix64's published first output.
KNOWN_U64 = {
    0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F],
    1: [0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E],
    2**63: [0x481EC0A212A9F3DB, 0xC46FA638A6309012, 0x61A685FFC80A8140],
    2**64 - 1: [0xE4D971771B652C20, 0xE99FF867DBF682C9, 0x382FF84CB27281E9],
}
KNOWN_UNIFORM = {
    0: ["0x1.c4415072f63b9p-1", "0x1.b9e279aa86e58p-2", "0x1.b117462002500p-6"],
    1: ["0x1.22145bd91204bp-1", "0x1.7dd71b42cb1ddp-1", "0x1.f12745ddf664ap-1"],
    2**63: ["0x1.207b02884aa7cp-2", "0x1.88df4c714c612p-1", "0x1.869a17ff202a0p-2"],
    2**64 - 1: ["0x1.c9b2e2ee36ca5p-1", "0x1.d33ff0cfb7ed0p-1", "0x1.c17fc26593940p-3"],
}

# sha256 of `binreg simulate` stdout for each kind, as the scalar generators
# wrote it; the array draws must leave every byte in place
SIMULATE = {
    ("--kind", "overlapping", "--n", "40", "--d", "3", "--seed", "5"):
        "d9545a433d033b5ae0dd9e1b7de797774cd34be452dc8dd183a227c0742ac5d2",
    ("--kind", "separated", "--n", "40", "--d", "3", "--seed", "5"):
        "e990816b3f8ca60a90be0e0dcb7ada54cd62c254412f1862499d197cf81a1adc",
    ("--kind", "balanced", "--n", "40", "--d", "3", "--seed", "5"):
        "28afd4f5dd0ccd60ecf718d5cfc9607bbde341bf6593e8b0b4e7d37e3e5d3f28",
    ("--kind", "gaussian", "--n", "40", "--seed", "5", "--mu0", "0,0,0", "--mu1", "1,0,-1"):
        "5841f857a880bde81d21d58af8760cc51ee82be3b51b0b3bf4ff0cbfed7fc412",
}


@pytest.mark.parametrize("seed", sorted(KNOWN_U64))
def test_known_answers(seed):
    rng = CounterRng(seed)
    assert [rng.u64() for _ in range(3)] == KNOWN_U64[seed]
    rng = CounterRng(seed)
    assert [rng.uniform().hex() for _ in range(3)] == KNOWN_UNIFORM[seed]


@pytest.mark.parametrize("seed", sorted(KNOWN_U64) + [12345, -5])
@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-2.0, 2.0), (-1.0, 1.0), (3.5, -0.25)])
def test_uniforms_replays_the_scalar_stream(seed, lo, hi):
    batched, scalar = CounterRng(seed), CounterRng(seed)
    assert batched.u64() == scalar.u64()       # start mid-stream
    for count in (0, 1, 257):
        got = batched.uniforms(count, lo, hi)
        want = np.array([scalar.uniform(lo, hi) for _ in range(count)])
        assert got.dtype == np.float64 and got.shape == (count,)
        assert got.tobytes() == want.tobytes()
        # the counter advanced by count: the draws after it match too
        assert batched.u64() == scalar.u64()
        assert batched.uniform(lo, hi) == scalar.uniform(lo, hi)
        assert batched.normal() == scalar.normal()


def test_negative_count_is_refused():
    # uniforms(-5) after 10 draws moved the counter back to 5, so the next
    # draws replayed earlier ones
    rng, scalar = CounterRng(9), CounterRng(9)
    rng.uniforms(10)
    for _ in range(10):
        scalar.uniform()
    for count in (-1, -5, -11):
        with pytest.raises(ValueError):
            rng.uniforms(count)
    assert rng.uniforms(0).shape == (0,)
    assert rng.u64() == scalar.u64()


def test_empty_randint_range_is_refused():
    # hi = lo - 1 divided by zero, and hi = lo - 2 gave lo, outside [lo, hi]
    rng, scalar = CounterRng(3), CounterRng(3)
    for lo, hi in ((41, 40), (42, 40), (0, -7)):
        with pytest.raises(ValueError):
            rng.randint(lo, hi)
    # a refused call draws nothing
    assert rng.randint(40, 40) == 40
    scalar.u64()
    assert rng.u64() == scalar.u64()


@pytest.mark.parametrize("argv", sorted(SIMULATE))
def test_simulate_output_is_pinned(argv, capsys):
    assert main(["simulate", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE[argv]
