"""Scripted run directories are pinned byte for byte.

Each digest is the sha256 over every file of one run dir (relative path and
contents, in sorted path order). A change that alters any byte of a
scripted run must say so and update the pinned value here.
"""

import hashlib

import pytest

from echogrid.harness import RunConfig, run_stream

GOLDEN = {
    ("react", "scripted:turn-left"): "0946ca6928828a50ab3921f2bcd946512f4d903b94fa3581d120aa99ffdec445",
    ("reflexion", "scripted:turn-left"): "aa5c2760f38141deaf2234ded26d802aaa28e1f84c97f7ec4d1df83e4db48681",
    ("awm", "scripted:turn-left"): "fae25487a654785ce90e915f6df7016f2d479df843595ea73a9445599acdc850",
    ("awmpp", "scripted:turn-left"): "58ca39b5f714a318bc4aee5903e826239219e97f1d41bb87de3dd30434f590f5",
    ("echo", "scripted:turn-left"): "8e9b12628ee29da5c253432510eea332c70677b9dc906f356c721289289b2d0b",
    ("react", "scripted:oracle"): "ec5a015fb84c59bc706d2d8515fa079fb4e2808e114b2c6414a3feee5e6dd4ae",
    ("reflexion", "scripted:oracle"): "1bb7f9eee28fee9994617ee38f276e6c0720f3fa9937445beec8a6a69776ef54",
    ("awm", "scripted:oracle"): "b4ce0ae92af20a5ebb58e3757f5a76dd550c48eeec4a1af68d9717a46792db87",
    ("awmpp", "scripted:oracle"): "53480024c09b5d241add4f32907b7f848639e7a46017c6aa827d8cad8685a88f",
    ("echo", "scripted:oracle"): "abe5ce4d6585b90c72d74e8cb8204e272f40fb33e66a6b962b39b2f8a50d6f26",
    ("react", "scripted:bfs-demo"): "9fead0e07b33fe1a74fcf8f81e610b45242694f9388e911e5abda7e42476cfd6",
    ("reflexion", "scripted:bfs-demo"): "8bb5836447056a1f410a1ad2cdf5ee30d04c36b0dc4ad871ca51cacc86e35def",
    ("awm", "scripted:bfs-demo"): "65abe449f8bc0238ab2c35ca83f659256d21cc54d6ea8180ffd02e5769560a2e",
    ("awmpp", "scripted:bfs-demo"): "04fc2e885d993c98489bd795c868c7318c090dc77448a2d9bff573e9989efd6a",
    ("echo", "scripted:bfs-demo"): "8a2b12378180a0b8bae166102c41ac17bce0f7a4918d72a1d39c1b71155e9de4",
}


def run_dir_digest(root) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("strategy,backend", sorted(GOLDEN))
def test_scripted_run_dir_digest(tmp_path, strategy, backend):
    config = RunConfig(
        env_seeds=(0, 1, 2), episodes_per_env=6, strategy=strategy, backend=backend, workers=1
    )
    run_stream(config, out_dir=tmp_path)
    assert run_dir_digest(tmp_path) == GOLDEN[(strategy, backend)]
