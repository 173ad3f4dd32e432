"""Scripted run directories are pinned byte for byte.

Each digest is the sha256 over every file of one run dir (relative path and
contents, in sorted path order). A change that alters any byte of a
scripted run must say so and update the pinned value here.

PER_EPISODE_FILES pins the same runs in the layout that stored each memory
snapshot as memory/<env_seed>/<episode_index>.json, rebuilt from memory.jsonl:
the one-file memory log changed where the snapshots go, not their bytes.
"""

import hashlib
import json

import pytest

from echogrid.harness import RunConfig, run_stream
from echogrid.world import canonical_json

PER_EPISODE_FILES = {
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


GOLDEN = {
    ("react", "scripted:turn-left"): "1bb5e734ec7db8dffabe535c09d1ac5f2b61e6ef1cd44bfb48b7b8c58159c434",
    ("reflexion", "scripted:turn-left"): "9a41917426d80d392252cbc433eb14ba3207fa20aa56def1ea1b6febc675c1c4",
    ("awm", "scripted:turn-left"): "1b60d624d5ca7d082b23a3d724b4ce2c0fe42d9d4816815069e92b458e8dae57",
    ("awmpp", "scripted:turn-left"): "db8899a5a69a25b93cdacc6a3c1e1ae9195e517ef6aeb99521e6462caf6837f3",
    ("echo", "scripted:turn-left"): "89b82296a86c61218f63866a0428aecec0ceac5572d431c95b87f23cdab9c406",
    ("react", "scripted:oracle"): "44db407d04b91901f9f0e4386ac9dbcd96707eabdc93bd6fcc20d2eba80163e7",
    ("reflexion", "scripted:oracle"): "dc4239014106eaef34d4b1adf03b7a2517a1b136002457534c5dc165b76a2bc4",
    ("awm", "scripted:oracle"): "60ff0a2ce22ea4b916e95270df90d9c375b23291d1473da5d363f541d2d96288",
    ("awmpp", "scripted:oracle"): "46eb7041aaa5916c7aefc37803b258387bdef56440417afeea4fe253a720c7df",
    ("echo", "scripted:oracle"): "320ab1f2b30ebd142a5dc0b80bf18fbf009b2dd5ef756737cab83971ff8173e7",
    ("react", "scripted:bfs-demo"): "43f1fc7e0d8a34fba4c22f8e5490cc5f1f2cc922ca6aa21e4e8cc42fae7b516d",
    ("reflexion", "scripted:bfs-demo"): "fc0e51e73420ae343e529106a4978da22f16f11b311feebec1f5c5314e29b7d3",
    ("awm", "scripted:bfs-demo"): "c69eaa2a612a0f736b28f5ee56300e901956b983c3c48457f0703c70aac524f0",
    ("awmpp", "scripted:bfs-demo"): "9d1aabcae30d4968eed42a9cbc5ef1c4cdd2b2b9ed1c8e287a281cfb17304f47",
    ("echo", "scripted:bfs-demo"): "dd600bed8c7ebd7579e87274c162d9c688c68bd288081455a686cd84052ca1a4",
}


def run_dir_digest(root) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _run(root, strategy, backend) -> None:
    config = RunConfig(
        env_seeds=(0, 1, 2), episodes_per_env=6, strategy=strategy, backend=backend, workers=1
    )
    run_stream(config, out_dir=root)


def per_episode_files(root) -> None:
    """Replace root/memory.jsonl by one file per snapshot, as runs once stored them."""
    log = root / "memory.jsonl"
    for line in log.read_text(encoding="utf-8").splitlines():
        doc = json.loads(line)
        path = root / "memory" / str(doc["env_seed"]) / f"{doc['episode_index']}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(canonical_json(doc["memory"]) + "\n", encoding="utf-8")
    log.unlink()


@pytest.mark.parametrize("strategy,backend", sorted(GOLDEN))
def test_scripted_run_dir_digest(tmp_path, strategy, backend):
    _run(tmp_path, strategy, backend)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "memory.jsonl", "metrics.csv", "trajectories.jsonl",
    ]
    assert run_dir_digest(tmp_path) == GOLDEN[(strategy, backend)]


@pytest.mark.parametrize("strategy,backend", sorted(PER_EPISODE_FILES))
def test_memory_log_holds_the_per_episode_files(tmp_path, strategy, backend):
    _run(tmp_path, strategy, backend)
    per_episode_files(tmp_path)
    assert run_dir_digest(tmp_path) == PER_EPISODE_FILES[(strategy, backend)]
