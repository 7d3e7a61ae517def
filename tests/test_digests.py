"""Pinned output bytes of the scoring commands on a small seeded input.

The scoring digests were recorded from the row-record loader, before the
timeline went columnar.  The `train-gbt` and `ablate` digests were recorded
from the model of recursive tree objects, before the model went to flat node
arrays.  A change that moves one output byte of `ingest`, `winjud`,
`momentum`, `dbwp`, `correlate`, `train-gbt` (its model JSON) or `ablate`
(or a manifest field other than `duration_s`) fails here, not only in the
benchmark's reference check.  The scoring manifests were re-pinned when the
scoring commands lost `--seed` and their manifests its `seed` key, and the
`train-gbt` and `ablate` manifests when their top-level `seed` key went (the
seed stays in `config`).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json

from matchkit.cli import run_cli
from matchkit.ingest import SyntheticSpec, generate_synthetic_match, write_timeline_csv

MATCHES = ("pin-a", "pin-b", "pin-c")
# The output path flag of commands that do not write to --out.
OUT_FLAG = {"train-gbt": "--model-out"}


def _pinned_csv(path):
    """Three synthetic matches; the last has its clock floored to the minute,
    so the fluctuation series averages runs of equal timestamps."""
    buf = io.StringIO()
    write_timeline_csv([
        generate_synthetic_match(SyntheticSpec(n_points=90, seed=5, match_id="pin-a")),
        generate_synthetic_match(SyntheticSpec(n_points=140, p_serve_win=0.55, seed=6,
                                               ace_rate=0.2, match_id="pin-b")),
        generate_synthetic_match(SyntheticSpec(n_points=120, seed=7, match_id="pin-c",
                                               mean_point_duration_s=25.0)),
    ], buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    clock = rows[0].index("elapsed_time")
    for row in rows[1:]:
        if row[0] == "pin-c":
            h, m, _ = row[clock].split(":")
            row[clock] = f"{h}:{m}:00"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


# (output name, argv after --input/--out)
RUNS = [("ingest", ["ingest"])]
for _mid in MATCHES:
    RUNS += [
        (f"winjud-{_mid}", ["winjud", "--match-id", _mid]),
        (f"momentum-{_mid}", ["momentum", "--match-id", _mid]),
        (f"dbwp-{_mid}", ["dbwp", "--match-id", _mid]),
        (f"correlate-{_mid}", ["correlate", "--match-id", _mid]),
    ]
RUNS += [
    ("winjud-b-wide", ["winjud", "--match-id", "pin-b", "--wv", "7", "--ws", "3",
                       "--beta", "0.3"]),
    ("momentum-b-factors", ["momentum", "--match-id", "pin-b", "--set-factor", "2.7",
                            "--game-factor", "1.37", "--ace-bonus", "0.4"]),
    ("dbwp-c-p2", ["dbwp", "--match-id", "pin-c", "--player", "2", "--grid-step", "7.3",
                   "--wv", "4"]),
    ("correlate-c-wide", ["correlate", "--match-id", "pin-c", "--wv", "4", "--grid-step", "7.3"]),
    ("train-gbt-pin-b", ["train-gbt", "--match-id", "pin-b"]),
    ("train-gbt-a-flags", ["train-gbt", "--match-id", "pin-a", "--variant", "strat_only",
                           "--n-trees", "30", "--max-depth", "3", "--min-child-weight", "2",
                           "--min-gain", "0.01", "--lambda-grid", "0,0.3,5",
                           "--rho-grid", "1,0.2"]),
    ("ablate-pin-c", ["ablate", "--match-id", "pin-c"]),
]

DIGESTS = {
    'input': '041efec37a12ff08a389fd2928673021382635d58c0be3954c603141a4840da7',
    'ingest': '041efec37a12ff08a389fd2928673021382635d58c0be3954c603141a4840da7',
    'ingest.stdout': 'f8021ca12195f7e5fe185ad8443bf3bfdefcdcec0ef1e5413ca22d7baa314da4',
    'ingest.manifest': '6efa5cefb14ff0d3f7cf9ce70c54e0c3460c149d382418204cbacbb14a1cf542',
    'winjud-pin-a': '7302a738ae30aa09629986e3b67583f4f092bc905a22f9e4471260361501d897',
    'winjud-pin-a.stdout': '5567c955775c23b9970721ba365a8f5c6cc9a23d2b5631f80c62e792421a28b3',
    'winjud-pin-a.manifest': 'b3ac874fe9ba7646cad31668edc36715f3113bee4f63b09a4d9940593f5f50be',
    'momentum-pin-a': '3c1508e899240c1291ee04af0944fdb00325607eb2bb5954917e609981f91e36',
    'momentum-pin-a.stdout': '892ea00770c090e472056d1797fc9b489cee8392fdf13cef7c94a8be13a88b36',
    'momentum-pin-a.manifest': 'b4e574fe033b511723ecbcc2bc8c68e1ba7ca48999306ddc0fb865639e4911e2',
    'dbwp-pin-a': '63380cd87eed0d9230b54f3a0191f992a0c581312fc329b4544ebfaa1b7b279d',
    'dbwp-pin-a.stdout': '7d780ddea925de2fdb7e4283d5f49d4cdad311e052cc796f415db0b2c71e9135',
    'dbwp-pin-a.manifest': 'e20256038533b96becba530ea0c42b4b3cd83217050332fd7061b3ed1bc86e71',
    'correlate-pin-a': 'ed74f0096d78b750c06094ca79ea343b34a1937de16a04a82c78c6faa0913439',
    'correlate-pin-a.stdout': 'f3fba0231c60e1dc3c11c828efd7d540eca3ec3a8846a7d740d9e03b96c8cd95',
    'correlate-pin-a.manifest': 'ded7394b5cd95487c9dc21d00e34061073f32cc684984f54a472ee1aa3b02453',
    'winjud-pin-b': '35399f3d75d1293b1483fe3a65b2c1355f27fa0ed1925e1674291655814b524b',
    'winjud-pin-b.stdout': '7ea4753d6250ee5c59c6d2df9b3e6e2d27e4cbeab557f396358d95d678b506c2',
    'winjud-pin-b.manifest': 'f1010e260f6611d756f9a94c598870ed2ea879493efc3fa3418615c81fe09239',
    'momentum-pin-b': '453208d57f32a511e3abb9cb7e35dbd71a87c1284935c6981c7ae866f91fe821',
    'momentum-pin-b.stdout': '3911c90eefebcc4bc731f348ade8c3a2fa5a58ed2f74df9c481bafb3ec9fbda6',
    'momentum-pin-b.manifest': '5cee802e49495734733c41e1469c246c3c0f84197f17db2fdd5652d19c591421',
    'dbwp-pin-b': '331aa34524f6258b9d23f71c54e4f00f0b0fdc77a4daec6b90a8c23045685bb2',
    'dbwp-pin-b.stdout': '6654f57cc184910cfc9a408702ed6b79021377c35372d3d5d3f129466f7eda57',
    'dbwp-pin-b.manifest': '364450f6a582562a5f693af335c95fb874eb9cb925d23d14db4e6997f502ba94',
    'correlate-pin-b': '59729cfe2498d7d1d96d5c3a7acbf0824606fb1d106c269f98e254d5a8a2ffa6',
    'correlate-pin-b.stdout': '4f11dc5864d3c8b586e3c34713523955c3499ff55a9ba7ed6eb7f4cdcc6caefe',
    'correlate-pin-b.manifest': '7c00f02cd21f9a7daba057d04b1c627051ef7974ce2ed0f29bf52701a41a081c',
    'winjud-pin-c': '131887439551d990ae7ced46aef62c54cde9c7bf5d83977d4f7b47fa3aa649e7',
    'winjud-pin-c.stdout': '19d92c8c0c72d883bdc0d93a328952830778458f8cb0f408f72aec266b2f8cb2',
    'winjud-pin-c.manifest': '54716f2394c9931addb3f8827bb877519c4277d46a4075ffc038a3ea3ef194b0',
    'momentum-pin-c': '65c5d1dc239cb809d85b9fee214d831aa03b2937b3185d4a1fd90f62e21e5dfb',
    'momentum-pin-c.stdout': 'e8594ea6a5f3093aa1663e5232aebf0646beec017c127f8290f881821b56c34e',
    'momentum-pin-c.manifest': '47cf431aeff76a0b3f5bf438c15cc1c55a61bf6fa1123bd12293db600eb0c5d6',
    'dbwp-pin-c': 'd3bde18f05e4bdc7c93680d54b3966a322b736515ae43f29e34cb6b9bffa5060',
    'dbwp-pin-c.stdout': 'e8f042aa7feda772e9d9a50988725cbd988938df0f3fe424b733b6cf6b61b049',
    'dbwp-pin-c.manifest': 'b4ba9bddd02d58c1a6b349c51028a7e3ac25bba83be990a06c1b124d0ecc513a',
    'correlate-pin-c': '3d3a5b7eeb321bd72b0d611e7dd9ab639361cc6784a7c21ea52ed7ee079b6934',
    'correlate-pin-c.stdout': 'b502cfb2cb2a0de6604f152cc0cfba316601fcbe5e7e38a19f995a7c252ee9e7',
    'correlate-pin-c.manifest': 'b04963a931d647e5dc950705ca0a4cb0c0636c96f9a7f48cad0095ec6ec7b425',
    'winjud-b-wide': '1ba41801abaeec448b4dc30e84f7eddb5a749781523a1eeb24cb54fbb020b73a',
    'winjud-b-wide.stdout': '41fb61c541c741190bd2d94765eb4d3455172e809cf8b6ab971ec092fc913a5c',
    'winjud-b-wide.manifest': '3522b08599888feeb22736f348dac29ac6df0a0d64a3016eae5c4187aa654ff2',
    'momentum-b-factors': '6511cfb639a0a254e6bb1694cac7c1055ef7b57a24069012c462dd3bec9eef12',
    'momentum-b-factors.stdout': '3911c90eefebcc4bc731f348ade8c3a2fa5a58ed2f74df9c481bafb3ec9fbda6',
    'momentum-b-factors.manifest': '9ad16f56cd3644634547f6e22f18f409ce98e206785d4509d571bed7d4c9ec5f',
    'dbwp-c-p2': '352206412e61a6d370efaed1386dfcc50adbab8fb2f8e883780182d879e3031d',
    'dbwp-c-p2.stdout': 'da2b43da8a33153f2b5ffee2ce4299aae4eeb25a6e800e0e068d552cc21c0d29',
    'dbwp-c-p2.manifest': '2712d4d150c75b5ac75942f65383f5735501f1b92fafd09cd3ff29c7a7dbed7c',
    'correlate-c-wide': '6e72e5eae3adaea8fbbd3dea5d2cee81c5dd19306115fa479b7e9d17845b1d35',
    'correlate-c-wide.stdout': 'f92ec72ce9a20963d6b5d2a14e45be86aa86141e8243eb328b407712bfd19f37',
    'correlate-c-wide.manifest': '06bfc9d31c65720630423ab7d82eaa0db7907c79e3e4ddf9dd0dce2742e1e11b',
    'train-gbt-pin-b': '829e7775cd381c455f445e0f928f112bdcbfea87d036e38584c8a5bec49801fd',
    'train-gbt-pin-b.stdout': 'c46b10a77b7c8400f8b86e98cc93872357d12d9fba62e030a81da70ed8fa8341',
    'train-gbt-pin-b.manifest': '76e8fb5569445529edd5748713d5d6ccfa3fbaba7db552090cd50d1cc8474ace',
    'train-gbt-a-flags': '1eba8fda89c09c42cb51390272c85e35cd46d5ec3bb8528fb61aa01e962aea9e',
    'train-gbt-a-flags.stdout': '2ec7b0b042d7be7b5b9d1ff8b4c211da5985933edbe1f1bee493dfc9b2c8b795',
    'train-gbt-a-flags.manifest': '67edbe76401ffc0064e76f4cde48741b3641af876834332fc3c005dba516052f',
    'ablate-pin-c': '09fb4c5b9b4eeef0f4f6489a309c2132d36a60a44b359bb586b973b11aa2c4ac',
    'ablate-pin-c.stdout': '44f0bf9961b08a4a56000067871558c0c9b9d0f7fa6f31a006e3f92244acc1b3',
    'ablate-pin-c.manifest': 'b3bd89b3219f7faf04cfe9c0a7a62ff4d11289fbf495aa726a5fa067cf33d086',
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_all(tmp_path):
    source = tmp_path / "pinned.csv"
    _pinned_csv(source)
    digests = {"input": _sha(source.read_bytes())}
    for name, argv in RUNS:
        out = tmp_path / f"{name}.csv"
        manifest = tmp_path / f"{name}.manifest.json"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run_cli([argv[0], "--input", str(source), OUT_FLAG.get(argv[0], "--out"),
                            str(out), "--manifest", str(manifest)] + argv[1:])
        assert code == 0, name
        doc = json.loads(manifest.read_text())
        doc.pop("duration_s")
        # paths differ by run directory only
        text = json.dumps(doc, sort_keys=True).replace(str(tmp_path), "")
        digests[name] = _sha(out.read_bytes())
        digests[f"{name}.stdout"] = _sha(stdout.getvalue().encode())
        digests[f"{name}.manifest"] = _sha(text.encode())
    return digests


def test_outputs_match_pinned_digests(tmp_path):
    got = _run_all(tmp_path)
    assert sorted(got) == sorted(DIGESTS)
    assert {k: v for k, v in got.items() if DIGESTS[k] != v} == {}


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        for key, value in _run_all(pathlib.Path(d)).items():
            print(f"    {key!r}: {value!r},")
