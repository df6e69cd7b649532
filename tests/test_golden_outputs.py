"""Pinned outputs: the sha256 of each experiment's JSON-lines records.

Every experiment runs at small fixed settings under two master seeds. The
``build`` field carries the source revision, so it is blanked before
hashing; every other byte of stdout is pinned, including the 17-digit float
formatting. A change that moves any bit position, RNG draw or formula shows
up here. When outputs change on purpose, regenerate the table with

    PYTHONPATH=src python tests/test_golden_outputs.py

and record the reason in CHANGES.md.
"""

import hashlib
import io
import re

import pytest

from bloomlab import cli

SEEDS = (11, 2024)

CASES = {
    "fpr-public": ["fpr-estimate", "--mode", "public", "--m", "256", "--k", "5", "--n", "30",
                   "--u", "4096", "--trials", "3", "--queries", "1500"],
    "fpr-keyed": ["fpr-estimate", "--mode", "keyed-prf", "--m", "256", "--k", "5", "--n", "30",
                  "--u", "4096", "--trials", "3", "--queries", "1500"],
    "fpr-true-random": ["fpr-estimate", "--mode", "true-random", "--m", "256", "--k", "5", "--n", "30",
                        "--u", "4096", "--trials", "3", "--queries", "1500"],
    "ab-public-saturation": ["ab-game", "--mode", "public", "--adversary", "saturation",
                             "--m", "64", "--k", "3", "--n", "20", "--trials", "20"],
    "ab-keyed-uniform": ["ab-game", "--mode", "keyed-prf", "--adversary", "uniform",
                         "--m", "256", "--k", "5", "--n", "30", "--trials", "20"],
    "ab-true-random-uniform": ["ab-game", "--mode", "true-random", "--adversary", "uniform",
                               "--m", "256", "--k", "5", "--n", "30", "--trials", "20"],
    "bp-attack": ["bp-attack", "--m", "8,16", "--trials", "40"],
    "privacy-mangat": ["privacy-audit", "--mode", "mangat", "--p", "0.5", "--trials", "300"],
    "privacy-warner": ["privacy-audit", "--mode", "warner", "--p", "0.6,0.8",
                       "--direction", "reverse", "--trials", "300"],
    "filic-key-leak": ["filic-distinguish", "--scenario", "key-leak", "--trials", "40"],
    "filic-public-collision": ["filic-distinguish", "--scenario", "public-collision", "--trials", "40"],
    "filic-null": ["filic-distinguish", "--scenario", "null", "--trials", "40"],
    "saturation-scan": ["saturation-scan", "--m", "4,8,16", "--n", "20", "--k", "3", "--trials", "30"],
    "error-analysis-mangat": ["error-analysis", "--mode", "mangat"],
    "error-analysis-warner": ["error-analysis", "--mode", "warner", "--p", "0.6,0.9"],
    # Paths the cases above miss: the per-call Feistel rounds (u > 2^16), cycle
    # walking with m not a multiple of 8, both sides of the public index
    # table's gate (u*k <= 2^15), sparse builds, the saturation sum's early
    # stop, audits at the enumeration cap and a true-random saturation game.
    "filic-key-leak-per-call-rounds": ["filic-distinguish", "--u", "65537", "--trials", "20"],
    "filic-key-leak-u5000-m60": ["filic-distinguish", "--u", "5000", "--m", "60", "--trials", "20"],
    # Tabulated rounds over an inner filter that hashes per query (u*k > 2^15).
    "filic-key-leak-hashed-inner": ["filic-distinguish", "--scenario", "key-leak",
                                    "--u", "6554", "--k", "5", "--trials", "20"],
    "filic-public-collision-table": ["filic-distinguish", "--scenario", "public-collision",
                                     "--u", "6553", "--k", "5", "--trials", "20"],
    "filic-public-collision-hashed": ["filic-distinguish", "--scenario", "public-collision",
                                      "--u", "6554", "--k", "5", "--trials", "20"],
    "fpr-keyed-sparse": ["fpr-estimate", "--mode", "keyed-prf", "--m", "1048576", "--n", "10",
                         "--trials", "2", "--queries", "200"],
    "fpr-true-random-sparse": ["fpr-estimate", "--mode", "true-random", "--m", "1048576", "--n", "10",
                               "--trials", "2", "--queries", "200"],
    "saturation-scan-early-stop": ["saturation-scan", "--m", "256,1024", "--n", "300,1000", "--k", "7"],
    "privacy-mangat-cap": ["privacy-audit", "--mode", "mangat", "--u", "1048576", "--s", "1000",
                           "--trials", "50"],
    "privacy-warner-reverse-cap": ["privacy-audit", "--mode", "warner", "--p", "0.75",
                                   "--direction", "reverse", "--u", "1048576", "--s", "1000",
                                   "--trials", "50"],
    "ab-true-random-saturation": ["ab-game", "--mode", "true-random", "--adversary", "saturation",
                                  "--m", "64", "--k", "3", "--n", "20", "--trials", "20"],
    # At m=8 nearly every true-random filter saturates, so most queries miss
    # the memo on a filter whose bits are all set.
    "ab-true-random-uniform-m8": ["ab-game", "--mode", "true-random", "--adversary", "uniform",
                                  "--m", "8", "--k", "3", "--n", "20", "--trials", "40"],
    "ab-true-random-saturation-m8": ["ab-game", "--mode", "true-random", "--adversary", "saturation",
                                     "--m", "8", "--k", "3", "--n", "20", "--trials", "40"],
    # At m=64 no filter saturates: every probe and target misses the memo and
    # draws, and the record's probe_fp_rate counts the unsaturated probes.
    "bp-attack-m64": ["bp-attack", "--m", "64", "--trials", "40"],
    # The mangat audit's other direction, whose claimed bound is e^epsilon_prime.
    "privacy-mangat-reverse": ["privacy-audit", "--mode", "mangat", "--direction", "reverse",
                               "--trials", "300"],
    # Hashed builds past one digest block, at shapes where the wins depend on
    # bit positions: keyed k=20 reads blocks of 8, 8 and 4 words, public k=12
    # (u*k > 2^15) hashes per query with blocks of 8 and 4, and keyed k=8 reads
    # one full block.
    "ab-keyed-k20": ["ab-game", "--mode", "keyed-prf", "--m", "64", "--k", "20", "--n", "8",
                     "--trials", "40"],
    "ab-public-k12-hashed": ["ab-game", "--mode", "public", "--m", "64", "--k", "12", "--n", "10",
                             "--trials", "40"],
    "ab-keyed-k8": ["ab-game", "--mode", "keyed-prf", "--m", "64", "--k", "8", "--n", "10",
                    "--trials", "40"],
}

DIGESTS = {
    'ab-keyed-k20': {11: '2285d7f0f766e7495749b9fdae19b99a79c3f552c9bfdefa0c94bf446ba78c0b', 2024: '5772d52b4ea8f6d2e60b04f96b009e2f18958de5260b5ad55224c3e9ac5601e1'},
    'ab-keyed-k8': {11: 'e5763b4737b48d56567b769c6777ec99c9312ca443c1fbeb903733c3cb2ed1cd', 2024: '336aff5b2ad36002b21abe6d0b7a5823fedaf857555bdaf592d58d43e302df9a'},
    'ab-keyed-uniform': {11: '166c6f65ef84a24aa82f03d103a535a2209e9475a244abb9049db73ce27ab1f8', 2024: '9b4c81113ca7ea9f93ebca36cc656549d8331425fe024003562b03215fe10cc9'},
    'ab-public-k12-hashed': {11: '2188a0d095aed80de21e0594bbe456818bcbff02f38b58c5fbd47f7ecfc783dc', 2024: '5537dc27ca91f4c4cc92664182e061cd9dcf14732f3cfd8df7125054cbfc7e89'},
    'ab-public-saturation': {11: 'd2ebc50bfd461eecf2f93333b3b11397ab7bbed9e478fc4112f6e0daa7941b24', 2024: '402936551b65c47d9df62cd5185180579c665354deed7c1f1e9f762a0ad8e554'},
    'ab-true-random-saturation': {11: '5861a01f12dcf45323b38052d65caeef6217eca5356684704cd78a67238d948b', 2024: 'da02342019af09df7ec2cd0d7a2046d4bbc41d37751f7d027228ea1455eab945'},
    'ab-true-random-saturation-m8': {11: '7c40da0fe3ec45fdcb409dc1a34a80a80c27f89a9f0013d4cdfbe236217a3250', 2024: 'cb401e5bbf5ba73d744e9ca067636d85cb4a03ff2c3e04fbebe70d04811ad4ca'},
    'ab-true-random-uniform': {11: '90b996de90f161c873fb2e8d395b6167ea568492e4e3df370623a8ee2b928eee', 2024: 'bb2ff7514ddfe7ea87a76ec1580338c172dfbbc1d5acacb74efdaf096b072f85'},
    'ab-true-random-uniform-m8': {11: 'f1b100ab2bbb7f4ee568297651f52160e435864b6f7ba9cf53392c218af13ce4', 2024: '59810753893c1b2b7bb64a5de3441846e8f51eda79e6a901aee9f3774081e105'},
    'bp-attack': {11: 'f3dee474a0815cd3cf10c90953a932e83f8c836ba8acbf3bbbd8bef72ce75c1a', 2024: 'e9bdbae842caca977f7f111b3dd3869508f6627c49e2e9d38800080f3387e71e'},
    'bp-attack-m64': {11: '8b693b7e1722d58abf45887f3018893668874f399c83baaef7344a1c03bbded2', 2024: '37468f26c8c4770f989372904c1a5dacb23cb42fefd40ed1feed53046d90e7ce'},
    'error-analysis-mangat': {11: 'eef88aabe93cb16c939131f9e5e2763f77a90c0c525950a87ac6f32bd7363fb5', 2024: '58584ec3b2177a3cfb5d0ac8a991c18bad3c0de23b41695064a03d44d03ce047'},
    'error-analysis-warner': {11: '37069bfae852df9e43a07729dfc0a3c9aafd7b3f36da25a4e989303c5edbf638', 2024: 'bcb4014daeabe7c6422c19655d2b2dc0fc7d966bb5d3736a420a3fbb1155bcba'},
    'filic-key-leak': {11: 'ae0e0ebedbd395aa7c27f21c118f459530eb45eb94c5b2d5fb5bf3fb02cb6f78', 2024: '33d210e980e7a755bf9f23db04e29ba612c42ef713e6ebabf08850457cf70286'},
    'filic-key-leak-hashed-inner': {11: 'bb6b8ada5d00d7b1363664028f556eb7240c76b4f1eaa17cb2154f4a17d2d4d4', 2024: '22f0c67ebb3d60a5b78b580eb12c03ee3be7bcb71fa0213f001a893877b8fd09'},
    'filic-key-leak-per-call-rounds': {11: '2723fb64ef071c3e895b172a13fd5325f5ecf8800091636c93246dade9984610', 2024: 'c209599b6a54d3ce3ac4f766bb2de23e968c081e3f06b5684cdd83b8c35a6d0e'},
    'filic-key-leak-u5000-m60': {11: '43858725f9a303f64cdc4ad4b09414581e18c89ed6f5c0509a438f629cab4c46', 2024: 'ee0ad6745e957f6074701f9cdaabdd790e22ba7485b887f35a133fd47a6da70a'},
    'filic-null': {11: '76371bb235faf362b3490005eafb5018fa3aa3a7d79208c898c8ada4d53458f8', 2024: 'bf6be8f015727c31d272d36a0d9a40cebe361df992fb7bb3480fd8b945d5899a'},
    'filic-public-collision': {11: '89a6dd71dc01a7425dc774e8100bceaa562efff3d6d14d8cc25b8552a85b36cb', 2024: '5b0bf63802aee3849b1b23b0a287d1fe923223bb99689b64789f0e1264225045'},
    'filic-public-collision-hashed': {11: '6e7ba565a9c18337a006ce46da3e208b11338e13cce61a3ec34fad18e7cc461a', 2024: '864b5c0d40170943ef40f5a89447cae31a931afa652227aa18451e4fe8cfb2a8'},
    'filic-public-collision-table': {11: '19365bbd6b4046281ee48d380d01611ab6f7b50748d8c9eb6acdc6430d4a02db', 2024: '398d73485d0dbdc2d4c9f72732e89b50cb0195581294b55c1cb99045c3ab6eb3'},
    'fpr-keyed': {11: '76be2e0a157e20b8c16d3e35b700bcc891d396a7b86a9dcec8b9492cf2075ce2', 2024: 'bba9e21fecf7750c619e77cc0b86e288aeb9d4e3dd9faa8607c672af975d3fe9'},
    'fpr-keyed-sparse': {11: 'ae7ae4d101f0882e8762d2a62347c6dd11f3aa1b1ef346ea83c00c6490426b20', 2024: 'eb21024d08a809c95f10dc491d49128388b89427e3c85ea1eee5ab45b75bd552'},
    'fpr-public': {11: '7c7417f1a67d98d2e6b9922320b739c952718e65f5c6a7ebbc0b70be119cee25', 2024: 'b5ca9ee11177b05745d7649fc020472ff81972caa39199e621265541235c3866'},
    'fpr-true-random': {11: '802110e4fa6157995e4246319f90eb2bd37d8ac36a0199f6b6d1eb07e4999613', 2024: '09c970497e24780a9c5bff9d51e1bcded93827e6816ee4a12b8ec6c01a01c340'},
    'fpr-true-random-sparse': {11: '55ae8c97f6c80f8875a0aedbefc2400b52ffb99a9cb51fc1639050039ae28cf7', 2024: 'd999ade1fee3b4b85a1a58001c8043795db702b8d6dbafc91947dd1330a505a8'},
    'privacy-mangat': {11: '14735cf09f5b0525d57c6f052fb6eda962e2636320d4446de172830cf7180f32', 2024: 'f184b4a80aed3ed4e53ee64b40f0be0e26f2c2e4adef1bf448e1e51367cf3aac'},
    'privacy-mangat-cap': {11: '4cf50c299fff4c13fdedb50aba407a9bcbea8c39ad14d3148642a592dfb0034f', 2024: '8527f3471d7b95c9237d927cf2e2e71e3ba8640c2022d376b1caffccd1468bc0'},
    'privacy-mangat-reverse': {11: 'c7ce01d98667e830291faf7e6497c3171aa6493a909c000a23e145f4a62145b1', 2024: '709e988ff2022464078b29670fe06e68ea429bb2faa9bf4567f71d7acbfa076f'},
    'privacy-warner': {11: 'fbafb8890edadb5fd3b9c1d672fea9ac19b9a60a2f555c880fe70b37c06955df', 2024: 'c06e254ff5b5a97a2d0966ecf1a5894f3f39e86b30e12002780dcdcd2571f6f7'},
    'privacy-warner-reverse-cap': {11: '3ae2f10d031789992e379fae6c6d3199e64c7a927d3b0fcc4423a756b5a8306d', 2024: '8439e25422f5eaae00c49a74bc9cc53e97397fa48ce8fbc5672c5efdec60435e'},
    'saturation-scan': {11: '3ee65de5410a7531f42e16adf6c62967798be84ed1660b18a70ccad1d7c18c83', 2024: 'f402e5c073be9e4ac46a02828e9e35b9c08a908816e1146ef77b60c05f6850de'},
    'saturation-scan-early-stop': {11: '7de5a2e0aee5511c0471a4f8ab78bca9be8077ec20f30a056f51c4d331a001de', 2024: 'e553d4ce0cd9c1dc77e0dc2fb13b9e464e486e19093ee2a284e965a5505b50e3'},
}

_BUILD = re.compile(r'"build": "[^"]*"')


def records_digest(argv, seed: int) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = cli.main([*argv, "--seed", str(seed), "--format", "json"], out=out, err=err)
    assert code == 0, err.getvalue()
    text = _BUILD.sub('"build": ""', out.getvalue())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_records_match_pinned_digest(case, seed):
    assert records_digest(CASES[case], seed) == DIGESTS[case][seed]


if __name__ == "__main__":
    print("DIGESTS = {")
    for name in sorted(CASES):
        pins = ", ".join(f"{seed}: {records_digest(CASES[name], seed)!r}" for seed in SEEDS)
        print(f"    {name!r}: {{{pins}}},")
    print("}")
