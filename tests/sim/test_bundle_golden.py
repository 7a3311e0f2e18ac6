"""Golden bundle bytes: the simulator's output is pinned file by file.

Speed work on ``repro.sim``, ``repro.ppp`` and ``repro.isp`` must keep
every RNG draw in order.  A reordered draw shows up here as a changed
sha256 even when every analysis result happens to survive it.  The
values were captured before the session path and the probe walker were
optimised; regenerate them only for a deliberate behaviour change, and
say so.
"""

import hashlib

import pytest

from repro.sim.io import FINGERPRINT_FILE, bundle_fingerprint, write_world
from repro.sim.scenario import paper_scenario
from repro.sim.world import build_world

#: Every monthly pfx2as snapshot a full-2015 scenario writes.
PFX2AS_MONTHS = tuple("2015-%02d" % month for month in range(1, 13)) + (
    "2016-01",)

#: scale 0.1: seed -> (bundle_fingerprint, per-file sha256).  The monthly
#: pfx2as snapshots are identical within a seed (the routing plan is
#: static), so one digest covers all of them.
GOLDEN_SCALE_01 = {
    2015: ("3815032d0a8d30ba07d8deb7058e466d576b0bf58e9f6a8d49eca6f3689fda90", {
        "meta.json":
            "9bdbef46276524a3d95a2001b7c5dceaecbff7e3f5d4c3b3be43a8fac3ad838a",
        "archive.tsv":
            "8210db0808c3caa47fa47e146e8f1d71e710e16863c0dcfc7d1d522aac7e6714",
        "connlog.tsv":
            "071c158199066cbda90f56462268d4abe16b4f2e61410e26d69ec7b9f46a2ff5",
        "uptime.tsv":
            "9eacfbceaeaff0ed1255f6755692a3cce207dca482347140ff7dc8341ef4677e",
        "kroot.json":
            "7272b2ee687e0f8cee79c7b8c50e28c9f953a8f39730581e239728a803c6dfac",
        "pfx2as":
            "e66b4b33a0b19051bf8b23728ec94c9078b534b0fc4e41eb079b2e0f97ea1491",
    }),
    7: ("2001d3973c63b3cca7164f3f38dcc31fc40e460fecad288f15be46ba8e7913cc", {
        "meta.json":
            "75325cba360f7957476e97bffda6fc950fafdfebef41e1455af81aff8eb28d4e",
        "archive.tsv":
            "529afa29ecd3aab4e158e66fd3428d1a19e01eb1bb5f4794265fd3265857011d",
        "connlog.tsv":
            "8ce7d1037a0b22bc7658ecf585db2a1234e69f8a3e375fd44ffc6eadeb44c51a",
        "uptime.tsv":
            "2d48164a01a94c5d369f43ed996f1e372e4eb317783b53f82a7eac3164cc1c80",
        "kroot.json":
            "acba4acb20575948b05f35cf622be5f247c04e00c8030aa3d26ba81920b8218d",
        "pfx2as":
            "c89c77408a2e1a7a4ee583bbfd4cc180e6b36bc635bf3514636c1e51dc44ae70",
    }),
    11: ("43136f713e84b2343ffda8defb5279a4f8b75bbe7703bd4f2e00ff6c617f1436", {
        "meta.json":
            "e0417e082eb55f7b1be7a3040a80eb8c5d554d2c096530eb0b773ce45c4cf31c",
        "archive.tsv":
            "7d783cbd91ba57ad8439b30efbeaaf20d520fe0c37e37deba81248030d3d98d8",
        "connlog.tsv":
            "c07ac9322768c59dc2d1433d4df89ebf3db56e005293943600dfe97af3246711",
        "uptime.tsv":
            "d2d4502ff5a0416d46ebdba8b4b221ef206933e580e6c13694c4275e99d45130",
        "kroot.json":
            "28432db84d8be04108790a1c62aec5b903257b861c33c37873a415d18a75aea4",
        "pfx2as":
            "84c732f3f1b205528409cac9b79de311d47d6a35cc6aa69e8c73d0062e5184db",
    }),
}

#: scale 0.5, seed 2015: the bundle the runtime digest is pinned against.
FINGERPRINT_SCALE_05 = (
    "8617e671c915edce0f7ac290c0485374a6d3f10cf8d43f21a815a9dfce3ac2b9")


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write(tmp_path, scale, seed):
    return write_world(build_world(paper_scenario(scale=scale, seed=seed)),
                       tmp_path / "bundle")


@pytest.mark.parametrize("seed", sorted(GOLDEN_SCALE_01))
def test_bundle_bytes_pinned_at_scale_01(tmp_path, seed):
    fingerprint, digests = GOLDEN_SCALE_01[seed]
    root = _write(tmp_path, 0.1, seed)

    expected_files = {name for name in digests if name != "pfx2as"}
    expected_files |= {"pfx2as/%s.txt" % month for month in PFX2AS_MONTHS}
    expected_files.add(FINGERPRINT_FILE)
    written = {str(path.relative_to(root))
               for path in root.rglob("*") if path.is_file()}
    assert written == expected_files

    for name in sorted(expected_files - {FINGERPRINT_FILE}):
        key = "pfx2as" if name.startswith("pfx2as/") else name
        assert _sha256(root / name) == digests[key], name
    assert bundle_fingerprint(root) == fingerprint
    assert (root / FINGERPRINT_FILE).read_text() == fingerprint + "\n"


@pytest.mark.slow
def test_bundle_fingerprint_pinned_at_scale_05(tmp_path):
    root = _write(tmp_path, 0.5, 2015)
    assert bundle_fingerprint(root) == FINGERPRINT_SCALE_05
