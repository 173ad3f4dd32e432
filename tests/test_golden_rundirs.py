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
    ("react", "scripted:turn-left"): "48eb33d2d55faca835d9871aa36948a5305921739d29aa6e462496a4126f0a0e",
    ("reflexion", "scripted:turn-left"): "f069220c088068f7600ea90ff9f8c5d6d065669f6ebd7eb050927d8a99e39b86",
    ("awm", "scripted:turn-left"): "a8e6ca447672199a847b974d08205c10137e897181a672009151b61ca47d8657",
    ("awmpp", "scripted:turn-left"): "d59411cfd951dc486c2c53743b580e6b22912d34a6cd38c2c9a0853f429c6ab0",
    ("echo", "scripted:turn-left"): "331fb3b0309acdc62df2f5c64536213e6c4fe549fae92bb702e3edae200573f2",
    ("react", "scripted:oracle"): "e095026aada675d2a120939cb2bffac7872ba6dfcd728a537169f3cd0107be8d",
    ("reflexion", "scripted:oracle"): "f60aee9f6e3e057ad1880b037f0c9e3e634e00ab97fb7ff79405809e70f3af18",
    ("awm", "scripted:oracle"): "ed9d33bb6e841e5d0c532293372f732375f947143bb9a359fbb6bf4fdacd34ba",
    ("awmpp", "scripted:oracle"): "aa1d76c5e7f3342829ecff992104f26f057961e762eb01076d8667aefb6bd646",
    ("echo", "scripted:oracle"): "b8b61464a21f9472a75972fb0dec45227035b0d1dfb57c1eb9732c142a96394c",
    ("react", "scripted:bfs-demo"): "aad4dc007f43debaa03a1da5188c76a1ad24e147f659c092fdbb5605b78c4a31",
    ("reflexion", "scripted:bfs-demo"): "c45ea9c6d612ff08759615ed0b04105cbf38b40723fbd7edc7de01b03a91d490",
    ("awm", "scripted:bfs-demo"): "84d739bccd1c7a6377e5b582af9f69f97af6b6208a85bc8a5d757a962d331cb7",
    ("awmpp", "scripted:bfs-demo"): "f7b59342ef1fee4db756a4820e93ca45572b1bdd7bcb44fd8d982693ccad8b73",
    ("echo", "scripted:bfs-demo"): "9163cad66a1c09ab7d832f22b8ba33a0a0388b6ce4e7cb16ac98b6ece8ad7226",
}


GOLDEN = {
    ("react", "scripted:turn-left"): "064f436a8c52b6a57624ec640b4f60c26ff1d4a106578d59db9e5ed27bcb0a6a",
    ("reflexion", "scripted:turn-left"): "57853c8850ac199caaf2c0d447aa515ab15b522b60d9de79220c9c9100f43c0f",
    ("awm", "scripted:turn-left"): "f6685e79fb5334e0b867d642caec88cc2a8f95a0a304ee33fc562392fc7467cb",
    ("awmpp", "scripted:turn-left"): "0dc30edce148b72a27343f120918d86479d8529ee223270d1c0fda80fe23e35d",
    ("echo", "scripted:turn-left"): "0d58041c09daf2b77379af97eab3ee848b77094353833749347c406b88f29b80",
    ("react", "scripted:oracle"): "93f21d64d23f28da5eacc0b5d4c612d61c6347ad5e4850d5c127ba7905dbf9d1",
    ("reflexion", "scripted:oracle"): "bdab6e45e93d981249a8155fddeb81b5178d61ac982cbe23b8c4c0771c7ef8c4",
    ("awm", "scripted:oracle"): "3a96f86b0778ba23165a5508f4d46cafaad966978d3399c7a962d4254495c12b",
    ("awmpp", "scripted:oracle"): "4ea2ca6a34312c5922437af4424d686cafe7b7a8ee2ba0e55b1599f20920ac28",
    ("echo", "scripted:oracle"): "1956c5af2a2ecaddefa4345a1a9a32ae1dc1c850ce38e2216f68604b798ff0ee",
    ("react", "scripted:bfs-demo"): "829e860768c861b6a647ca730c7f5d645d988ff8b8bc54e43fb27daa71d0e679",
    ("reflexion", "scripted:bfs-demo"): "036b5ab145ecb78fa8a2b9ecce35dc2a58da0ae1afd7d2a623c006463155542b",
    ("awm", "scripted:bfs-demo"): "acac16e00568c14f8bbe0b45e880f3a4bd2e35d6f82b679e8eeb516950bec440",
    ("awmpp", "scripted:bfs-demo"): "d34025a391de0857592bdc6a242bbddbcd066e09ea336381b42064779609bbe8",
    ("echo", "scripted:bfs-demo"): "0e2b7a9694feae4a015f0b1bfe8b95481f29bafeb8bc3ff26af75c520a498733",
}


def run_dir_digest(root) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _run(root, strategy, backend) -> None:
    config = RunConfig(env_seeds=(0, 1, 2), episodes_per_env=6, strategy=strategy, backend=backend)
    run_stream(config, out_dir=root, workers=1)


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
