"""Golden replay hashes of whole trajectories.

Each case hashes the recorded grid, the values on it, the jump bookkeeping
and the path statistics of single paths, coupled pairs and first-jump runs
across the catalog and the three recording strides.  The hashes pin the
draw-order contract and the engine's arithmetic bit for bit, so any change
to how the engine walks the grid, steps the flows or applies jumps shows
here.  They depend on the platform's libm (``math.exp``, ``math.log1p``,
``math.expm1``) and on numpy's Philox and normal samplers; on another
platform, regenerate them from a commit known to be correct.
"""

import hashlib

import numpy as np
import pytest

from pdifmp import EulerMaruyama, build_model, fork_for_path, next_jump
from pdifmp import simulate_coupled_pair, simulate_path

from util import constant_rate_model

SEED = 4242
PATHS = (0, 3, 11)
STRIDES = (1, 7, None)

GLIOMA = dict(lambda0=0.7, lambda1=0.08, b=0.0, x0=0.9, z0=0.9)

# (model id, overrides, h, horizon, second integrator of the coupled pair)
CASES = {
    "example1": ("example1", dict(rate_value=2.0, magnitude_rate=1.0), 2.0**-7, 1.0, "exact"),
    # the published bound 0.001 needs a long horizon to propose any jump;
    # a smaller sigma keeps the rate above it, so proposals are accepted
    # and counted as bound violations
    "example2": ("example2", dict(as_published=True, sigma=0.05), 0.5, 2000.0, "exact"),
    "weak_test": ("weak_test", {}, 2.0**-5, 1.0, "exact"),
    # started near the edge of the position hint, so excursions are counted
    "glioma": ("glioma", GLIOMA, 1e-2, 3.0, "splitting"),
}

GOLDEN = {
    'example1/single/1': '0d30b07bf49fa6112984080bac638bf59854f195f15f69b1fb27b58e46e6d27e',
    'example1/single/7': 'd16c8fa312274167b87354a78425949a3c6577979772265ef549f0c693c198ce',
    'example1/single/None': 'fda9df469142a41d6f951c682b0c9a0c7c1dc1d0107c6e55b49c745a38194990',
    'example1/coupled/1': 'd1dd89553b8abfb630c9a8167f56855f40bfe4cd227051e7a0d2f5e8d6c9ba9c',
    'example1/coupled/7': '852157bb9fb07bbe9b8fc3437b11300d4f3689400c3a8046fed3f98720109c89',
    'example1/coupled/None': '44c7245c7745af225c243678c638d49b01adafce5b0ae216f833faeeb1e0fbc3',
    'example2/single/1': '978e73b9b36fa7243cab3c896070c7298ee905380a86e8099b5eee3805c8d634',
    'example2/single/7': '6ddec3b52cc63b6b3d2a894e6cee1e36340088b30a934ffa10df87e938c71d15',
    'example2/single/None': 'c0d98f7a924ad9ece4e61730e2fc8efc5b329cc9b6b060552477c3f3b94addd7',
    'example2/coupled/1': '926aff34f0df101cfdeb0aaf29b50aa92034c83325aae749e7d7d6e258ca212e',
    'example2/coupled/7': 'e191f1dd786e8eb9e7dd6a63e8c5ffa8612e844abf08bf2cca246e87a92a4c84',
    'example2/coupled/None': '28d6cbbc898edc620075628869a8aee6f123fedfd560545b076f33e6b481c6d6',
    'glioma/single/1': '679db8cae5c53e7f17851b80f67ce85dde04964a084a2c1c0ce0af4349126150',
    'glioma/single/7': 'c0376b3559707013975807c26d693d28c1e1bfbca68e063a8227b6f133e616a2',
    'glioma/single/None': '2bc575aad33d6c95b5238cec50175e88815164ee968d88d3e443512a29559fe2',
    'glioma/coupled/1': 'c3318a983f38ba6ae16cb2e4d420ade8fef7f8ba56832e15d7a068aea650ef47',
    'glioma/coupled/7': '198bc89ef9879d27c69ad30b3260e5434f1cec1871538db48ed2bb51981f7f76',
    'glioma/coupled/None': '2f76f9784b20a49f03112c60ade2ead3ab1e7f28e223aa7fc4ce74dc500f9e20',
    'weak_test/single/1': '17fb11ae8e0c7fc7e26b9217fbfdb327cd8a8eb0d2e66cb21572b9eb685f2433',
    'weak_test/single/7': '5656d6334dea8748af6bc2aaf0e6a81d28c9d348a938362121512e862374bb37',
    'weak_test/single/None': 'ef083c352606a2d81d868fdffec1974225119d8af157f445d7f97b152836eb14',
    'weak_test/coupled/1': '4b532c7b914907b7b58c968691232e923ce5eb0acfea27478ca9eb38e7489505',
    'weak_test/coupled/7': '0992c6d51fffe1efee5ba83a9cf72bbff63dc06ead8794f9f86209d26cac9bb7',
    'weak_test/coupled/None': '2ab0ecb0671509a21a284e21d2eed22864149e841297e08e3cd19733ccc9afd8',
    'next_jump': '04c741bc834790e33042e5988985809f47b7dca01a3893c312bd430a748db4c7',
}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(str(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _traj_parts(traj):
    return (
        traj.times,
        traj.values,
        traj.jump_times,
        traj.interval_modes,
        traj.post_jump_values,
        traj.stats,
    )


def _case_digest(name: str, coupled: bool, stride) -> str:
    model_id, overrides, h, T, other = CASES[name]
    built = build_model(model_id, **overrides, horizon=T)
    second = getattr(built, other)
    parts = []
    for pid in PATHS:
        stream = fork_for_path(SEED, pid)
        if coupled:
            a, b = simulate_coupled_pair(built.model, built.em, second, stream, h=h, stride=stride)
            parts += _traj_parts(a) + _traj_parts(b)
        else:
            parts += _traj_parts(simulate_path(built.model, built.em, stream, h=h, stride=stride))
        parts.append(tuple(stream.counters))
    return _digest(*parts)


def _next_jump_digest() -> str:
    model = constant_rate_model(
        rate=0.5,
        rate_bound=1.0,
        drift=lambda y, v: (0.1 * y[0],),
        diffusion=lambda y, v: (0.2 * y[0],),
        horizon=3.0,
    )
    parts = []
    for pid in range(20):
        stream = fork_for_path(SEED, pid)
        traj = next_jump(model, EulerMaruyama(), stream, h=0.125)
        parts += [
            float(traj.times[-1]),
            tuple(traj.values[-1].tolist()),
            traj.stats.n_accepted > 0,
            traj.times[1:],
            traj.values[1:],
            traj.stats.n_proposals,
            tuple(stream.counters),
        ]
    return _digest(*parts)


@pytest.mark.parametrize("stride", STRIDES, ids=lambda s: f"stride{s}")
@pytest.mark.parametrize("coupled", (False, True), ids=("single", "coupled"))
@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_hashes_replay(name, coupled, stride):
    key = f"{name}/{'coupled' if coupled else 'single'}/{stride}"
    assert _case_digest(name, coupled, stride) == GOLDEN[key]


def test_next_jump_hashes_replay():
    assert _next_jump_digest() == GOLDEN["next_jump"]


if __name__ == "__main__":
    # print the table for GOLDEN
    for name in sorted(CASES):
        for coupled in (False, True):
            for stride in STRIDES:
                key = f"{name}/{'coupled' if coupled else 'single'}/{stride}"
                print(f"    {key!r}: {_case_digest(name, coupled, stride)!r},")
    print(f"    'next_jump': {_next_jump_digest()!r},")
