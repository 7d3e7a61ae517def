"""Pinned output bytes of the scoring commands on a small seeded input.

The scoring digests were recorded from the row-record loader, before the
timeline went columnar.  The `train-gbt` and `ablate` digests were recorded
from the model of recursive tree objects, before the model went to flat node
arrays.  A change that moves one output byte of `ingest`, `winjud`,
`momentum`, `dbwp`, `correlate`, `train-gbt` (its model JSON) or `ablate`
(or a manifest field other than `duration_s`) fails here, not only in the
benchmark's reference check.
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
    'ingest.manifest': 'ac38d44866d4d28cd0bc9176dd23e9fbf0c4c9a3880c14079806001ca95b5d0d',
    'winjud-pin-a': '7302a738ae30aa09629986e3b67583f4f092bc905a22f9e4471260361501d897',
    'winjud-pin-a.stdout': '5567c955775c23b9970721ba365a8f5c6cc9a23d2b5631f80c62e792421a28b3',
    'winjud-pin-a.manifest': '6df174bde23e4e4875f3eb9b0d831438866d2288d13d5d0f19136d7f4338419e',
    'momentum-pin-a': '3c1508e899240c1291ee04af0944fdb00325607eb2bb5954917e609981f91e36',
    'momentum-pin-a.stdout': '892ea00770c090e472056d1797fc9b489cee8392fdf13cef7c94a8be13a88b36',
    'momentum-pin-a.manifest': '064765c5dad53065436211e8e3ae584d56db8a13e8b44e6714996c77a019553f',
    'dbwp-pin-a': '63380cd87eed0d9230b54f3a0191f992a0c581312fc329b4544ebfaa1b7b279d',
    'dbwp-pin-a.stdout': '7d780ddea925de2fdb7e4283d5f49d4cdad311e052cc796f415db0b2c71e9135',
    'dbwp-pin-a.manifest': '1e1b07aa566af58f56b39aa7c0cb1c69b32a9cce98119031db3bdffa1dda0102',
    'correlate-pin-a': 'ed74f0096d78b750c06094ca79ea343b34a1937de16a04a82c78c6faa0913439',
    'correlate-pin-a.stdout': 'f3fba0231c60e1dc3c11c828efd7d540eca3ec3a8846a7d740d9e03b96c8cd95',
    'correlate-pin-a.manifest': '47ebf94bae027740781174d0b661af204f5188a8fb9c7a95dc4b1fc339dbb75f',
    'winjud-pin-b': '35399f3d75d1293b1483fe3a65b2c1355f27fa0ed1925e1674291655814b524b',
    'winjud-pin-b.stdout': '7ea4753d6250ee5c59c6d2df9b3e6e2d27e4cbeab557f396358d95d678b506c2',
    'winjud-pin-b.manifest': '1a73af4c2408770d4153e43679262439add978d85e49ef6c1b983056d3529579',
    'momentum-pin-b': '453208d57f32a511e3abb9cb7e35dbd71a87c1284935c6981c7ae866f91fe821',
    'momentum-pin-b.stdout': '3911c90eefebcc4bc731f348ade8c3a2fa5a58ed2f74df9c481bafb3ec9fbda6',
    'momentum-pin-b.manifest': '2705d9821f62298bcc999598e62fd73a945b1fbbb8615a3008af1ad3390186ec',
    'dbwp-pin-b': '331aa34524f6258b9d23f71c54e4f00f0b0fdc77a4daec6b90a8c23045685bb2',
    'dbwp-pin-b.stdout': '6654f57cc184910cfc9a408702ed6b79021377c35372d3d5d3f129466f7eda57',
    'dbwp-pin-b.manifest': '50ed466696605da5abae7e6e6a1c65565dc1934aece0e8a39de7ce08fa1147c1',
    'correlate-pin-b': '59729cfe2498d7d1d96d5c3a7acbf0824606fb1d106c269f98e254d5a8a2ffa6',
    'correlate-pin-b.stdout': '4f11dc5864d3c8b586e3c34713523955c3499ff55a9ba7ed6eb7f4cdcc6caefe',
    'correlate-pin-b.manifest': '1d7d549708fb153ea10a71c6f14841456fd019ef879b76998decf178904371b2',
    'winjud-pin-c': '131887439551d990ae7ced46aef62c54cde9c7bf5d83977d4f7b47fa3aa649e7',
    'winjud-pin-c.stdout': '19d92c8c0c72d883bdc0d93a328952830778458f8cb0f408f72aec266b2f8cb2',
    'winjud-pin-c.manifest': 'b40befa9273bab0353409314f00b098f4dcb35232d26768a4fac1a4b18ab469c',
    'momentum-pin-c': '65c5d1dc239cb809d85b9fee214d831aa03b2937b3185d4a1fd90f62e21e5dfb',
    'momentum-pin-c.stdout': 'e8594ea6a5f3093aa1663e5232aebf0646beec017c127f8290f881821b56c34e',
    'momentum-pin-c.manifest': 'cbf3b3ae05725cb1fe9f98b45157f5a3f5439a80d28fc6168940b82e206cab75',
    'dbwp-pin-c': 'd3bde18f05e4bdc7c93680d54b3966a322b736515ae43f29e34cb6b9bffa5060',
    'dbwp-pin-c.stdout': 'e8f042aa7feda772e9d9a50988725cbd988938df0f3fe424b733b6cf6b61b049',
    'dbwp-pin-c.manifest': '6011f68f3c9c854e058bbe796bbdf8a4d6d93180724e38a2061aa053b4efd63a',
    'correlate-pin-c': '3d3a5b7eeb321bd72b0d611e7dd9ab639361cc6784a7c21ea52ed7ee079b6934',
    'correlate-pin-c.stdout': 'b502cfb2cb2a0de6604f152cc0cfba316601fcbe5e7e38a19f995a7c252ee9e7',
    'correlate-pin-c.manifest': 'f2e80a8667aad43391150f86d0c39b1790633a063fc17531c11b532e732f25d2',
    'winjud-b-wide': '1ba41801abaeec448b4dc30e84f7eddb5a749781523a1eeb24cb54fbb020b73a',
    'winjud-b-wide.stdout': '41fb61c541c741190bd2d94765eb4d3455172e809cf8b6ab971ec092fc913a5c',
    'winjud-b-wide.manifest': '3704dce56ca8c4bb822d089c208e8b4717197dfd6fa434a6187e4da6df636d3d',
    'momentum-b-factors': '6511cfb639a0a254e6bb1694cac7c1055ef7b57a24069012c462dd3bec9eef12',
    'momentum-b-factors.stdout': '3911c90eefebcc4bc731f348ade8c3a2fa5a58ed2f74df9c481bafb3ec9fbda6',
    'momentum-b-factors.manifest': '1583446bf12a3ac5af6c0885dc0e6bfc1fca2108e1f726eebf17c4724a02c409',
    'dbwp-c-p2': '352206412e61a6d370efaed1386dfcc50adbab8fb2f8e883780182d879e3031d',
    'dbwp-c-p2.stdout': 'da2b43da8a33153f2b5ffee2ce4299aae4eeb25a6e800e0e068d552cc21c0d29',
    'dbwp-c-p2.manifest': '73a5fb7e3bba65e54d6471fa81456671245395cb096d6a4009ebf3cd6e7e5527',
    'train-gbt-pin-b': '829e7775cd381c455f445e0f928f112bdcbfea87d036e38584c8a5bec49801fd',
    'train-gbt-pin-b.stdout': 'c46b10a77b7c8400f8b86e98cc93872357d12d9fba62e030a81da70ed8fa8341',
    'train-gbt-pin-b.manifest': '1f8a03f1a1af1ef81e1be96afbdc5faba08b122246e2a4dacf21267de3d97011',
    'train-gbt-a-flags': '1eba8fda89c09c42cb51390272c85e35cd46d5ec3bb8528fb61aa01e962aea9e',
    'train-gbt-a-flags.stdout': '2ec7b0b042d7be7b5b9d1ff8b4c211da5985933edbe1f1bee493dfc9b2c8b795',
    'train-gbt-a-flags.manifest': '893fdde73a6b5c6141584775a65373d2a114eb1d8a9b486212193a7f5214becf',
    'ablate-pin-c': '09fb4c5b9b4eeef0f4f6489a309c2132d36a60a44b359bb586b973b11aa2c4ac',
    'ablate-pin-c.stdout': '44f0bf9961b08a4a56000067871558c0c9b9d0f7fa6f31a006e3f92244acc1b3',
    'ablate-pin-c.manifest': '6c461edda2f63ab50a4805e25707a6b0742696969396c91539d22c54938d8355',
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
