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
    # The flag array packed for a reveal and unpacked by a restore at an m that
    # is not a multiple of 8, and at a large odd m; and keyed filters that
    # saturate, so every query reads all k flags.
    "filic-key-leak-m1001": ["filic-distinguish", "--scenario", "key-leak", "--m", "1001", "--n", "100",
                             "--trials", "20"],
    "filic-public-collision-m65537": ["filic-distinguish", "--scenario", "public-collision",
                                      "--m", "65537", "--trials", "5"],
    "ab-keyed-saturated-m8": ["ab-game", "--mode", "keyed-prf", "--m", "8", "--k", "3", "--n", "20",
                              "--trials", "40"],
    # The largest domain whose rounds are tabulated, and the smallest, where
    # some real-world scans find no positive non-member and give up.
    "filic-key-leak-u65536": ["filic-distinguish", "--scenario", "key-leak", "--u", "65536",
                              "--trials", "20"],
    "filic-key-leak-u16": ["filic-distinguish", "--scenario", "key-leak", "--u", "16", "--n", "3",
                           "--m", "16", "--trials", "40"],
}

DIGESTS = {
    'ab-keyed-k20': {11: '2285d7f0f766e7495749b9fdae19b99a79c3f552c9bfdefa0c94bf446ba78c0b', 2024: '5772d52b4ea8f6d2e60b04f96b009e2f18958de5260b5ad55224c3e9ac5601e1'},
    'ab-keyed-k8': {11: 'e5763b4737b48d56567b769c6777ec99c9312ca443c1fbeb903733c3cb2ed1cd', 2024: '336aff5b2ad36002b21abe6d0b7a5823fedaf857555bdaf592d58d43e302df9a'},
    'ab-keyed-saturated-m8': {11: '89d7a883a17caf47e0a653b1782bbca7d7f15523d1c81de21b12a5ac408f161a', 2024: '88b6d30a166a549ae8009e06fd311de9d8041ad4ff47b60e2ac220e1b50954cc'},
    'ab-keyed-uniform': {11: '166c6f65ef84a24aa82f03d103a535a2209e9475a244abb9049db73ce27ab1f8', 2024: '9b4c81113ca7ea9f93ebca36cc656549d8331425fe024003562b03215fe10cc9'},
    'ab-public-k12-hashed': {11: '2188a0d095aed80de21e0594bbe456818bcbff02f38b58c5fbd47f7ecfc783dc', 2024: '5537dc27ca91f4c4cc92664182e061cd9dcf14732f3cfd8df7125054cbfc7e89'},
    'ab-public-saturation': {11: 'd2ebc50bfd461eecf2f93333b3b11397ab7bbed9e478fc4112f6e0daa7941b24', 2024: '402936551b65c47d9df62cd5185180579c665354deed7c1f1e9f762a0ad8e554'},
    'ab-true-random-saturation': {11: 'd7d4b24d19cb68aad4e8011f31e6ff3ca8a94ae86427958a7c7aa705b9bd10bd', 2024: '07b9b898c0b3a4a3b3d28bdcf8e07489b0b9d4bafaa8c8120e52311e4d434fbe'},
    'ab-true-random-saturation-m8': {11: '7c40da0fe3ec45fdcb409dc1a34a80a80c27f89a9f0013d4cdfbe236217a3250', 2024: 'cb401e5bbf5ba73d744e9ca067636d85cb4a03ff2c3e04fbebe70d04811ad4ca'},
    'ab-true-random-uniform': {11: '90b996de90f161c873fb2e8d395b6167ea568492e4e3df370623a8ee2b928eee', 2024: 'bb2ff7514ddfe7ea87a76ec1580338c172dfbbc1d5acacb74efdaf096b072f85'},
    'ab-true-random-uniform-m8': {11: 'f1b100ab2bbb7f4ee568297651f52160e435864b6f7ba9cf53392c218af13ce4', 2024: '59810753893c1b2b7bb64a5de3441846e8f51eda79e6a901aee9f3774081e105'},
    'bp-attack': {11: '714bd0820c38708cb18da97854c8e8496f2ca60b700e4f7e28fd671b00cbefb7', 2024: 'fd4674b47d376eb13e1787337fbc813b085222738da3ad977e5415165f6148c2'},
    'bp-attack-m64': {11: '27e13595f33c9ff9a8a96b9d44c0b00072e4ce34be8a94c7009837a601e36540', 2024: '9573f7abd06ac152aa8189022894ec9de7b2c6e1bfeb8dedd7ff9779ca9827ad'},
    'error-analysis-mangat': {11: 'eef88aabe93cb16c939131f9e5e2763f77a90c0c525950a87ac6f32bd7363fb5', 2024: '58584ec3b2177a3cfb5d0ac8a991c18bad3c0de23b41695064a03d44d03ce047'},
    'error-analysis-warner': {11: '37069bfae852df9e43a07729dfc0a3c9aafd7b3f36da25a4e989303c5edbf638', 2024: 'bcb4014daeabe7c6422c19655d2b2dc0fc7d966bb5d3736a420a3fbb1155bcba'},
    'filic-key-leak': {11: 'ae0e0ebedbd395aa7c27f21c118f459530eb45eb94c5b2d5fb5bf3fb02cb6f78', 2024: 'e9fd74fa04a4e202733742d8a9bdeae57d652cc021480181b4ba028f50606bc8'},
    'filic-key-leak-hashed-inner': {11: 'f3c255d76c0763219a002fe8bcbb9229c10425f4175b34ea4d0f4aecbe2dd350', 2024: 'ca3fffff114211e96de54044b18d10c72b791577bedfcc625b329aece8b8719e'},
    'filic-key-leak-m1001': {11: 'a65cca40075241e66aea795a9d7030a929ee4da8a880fcaf83c6f6016b5102c0', 2024: '61bf154afc7c06ecc8b134a4b47c9964a3dbca4b0327a0fd8d588ad05fd23317'},
    'filic-key-leak-per-call-rounds': {11: '26fa5ff85910d611bc41fb9dffd53a31c5eb3694b7ce490e0790939bad4e1393', 2024: '77154ba343d46d1a825a3f89377b364316402df2e4922f82d8b2b3f6d36bb12b'},
    'filic-key-leak-u16': {11: '5d32183ca5c9646cb7ba9b499925a6cdb5564c3981b641979a84cc4432b21fd7', 2024: 'd2a5c2aa45aaa974f0b8fa049095b99cf835e303459aa0580188ac572dcc1549'},
    'filic-key-leak-u5000-m60': {11: '90789d00344905b2ad7ef66a68a5d7f4a112bb1a58a3dad2baaa67ce18772126', 2024: '166b850dc0c5afb9448aade7057e32677a55e98d832168df92f86cf32137fa95'},
    'filic-key-leak-u65536': {11: '18b071ca2f57082bb2c85e286542607ff22050076afd180127dcdc4e1eeb809d', 2024: 'e207b6a4bd7c79f557d276dca5706c8671954503ba912e01d23cfe264c9d4224'},
    'filic-null': {11: '76371bb235faf362b3490005eafb5018fa3aa3a7d79208c898c8ada4d53458f8', 2024: 'bf6be8f015727c31d272d36a0d9a40cebe361df992fb7bb3480fd8b945d5899a'},
    'filic-public-collision': {11: '4304b8be37afd6474664c4f36cd420ddf076524b1effb7bed62df60a0d1cccd4', 2024: '2ffec976da163f3852486448ecf0564c183eb24c194a52107a6bc03ce73b51a0'},
    'filic-public-collision-hashed': {11: '6e7ba565a9c18337a006ce46da3e208b11338e13cce61a3ec34fad18e7cc461a', 2024: 'db5519083218e548ff572ea6b6b131607308e8d28716dd0df661fd3824227e6a'},
    'filic-public-collision-m65537': {11: 'f34c7af7057f0fa86ea6b3795b4c4f880ce201491d1a3bcca80b365dd7607a74', 2024: 'be13b6288962322b0af6ac14059cf872fc931a66aaea820772be52d861be1db4'},
    'filic-public-collision-table': {11: '19365bbd6b4046281ee48d380d01611ab6f7b50748d8c9eb6acdc6430d4a02db', 2024: '16279d1052bf2c72ac27ab0d59a3a769c520bdfbae2c0d1001f460706fbce51e'},
    'fpr-keyed': {11: '76be2e0a157e20b8c16d3e35b700bcc891d396a7b86a9dcec8b9492cf2075ce2', 2024: 'bba9e21fecf7750c619e77cc0b86e288aeb9d4e3dd9faa8607c672af975d3fe9'},
    'fpr-keyed-sparse': {11: 'ae7ae4d101f0882e8762d2a62347c6dd11f3aa1b1ef346ea83c00c6490426b20', 2024: 'eb21024d08a809c95f10dc491d49128388b89427e3c85ea1eee5ab45b75bd552'},
    'fpr-public': {11: '7c7417f1a67d98d2e6b9922320b739c952718e65f5c6a7ebbc0b70be119cee25', 2024: 'b5ca9ee11177b05745d7649fc020472ff81972caa39199e621265541235c3866'},
    'fpr-true-random': {11: 'f4d15e9cffc571ac10b125c4812c7f865eb4aa899651267c82818990d8d62b40', 2024: '011b05a9de4d5cc146e9c6143a1b208875ae17837ce58b62b05e2ea95d07bafa'},
    'fpr-true-random-sparse': {11: '55ae8c97f6c80f8875a0aedbefc2400b52ffb99a9cb51fc1639050039ae28cf7', 2024: 'd999ade1fee3b4b85a1a58001c8043795db702b8d6dbafc91947dd1330a505a8'},
    'privacy-mangat': {11: '5d8b0cd7439772fee70f9d06c757bcc6a0b3cdb7ef1ded3fee0fc4dda3563ead', 2024: '6666054be2fb7e6081b71e1e1a8852595144f0643c9902312acdc5888ae1a270'},
    'privacy-mangat-cap': {11: '1e53bf2ba09abc56c6550a2fa361c9a72c6713d92052d2c5372084ed1ef359ef', 2024: '5e04edf591bd16e65c935878d02a7da9253707cb8ca5ed6db3fad0ed5c1fb3c1'},
    'privacy-mangat-reverse': {11: '613ec5297c7ef3e77943721bd4907efbe52b90eafa0cf1107b2a1b44f6633ad3', 2024: '70dd1b45cb4188ec5327765a542de73207e7109a6e72c42135ef1f8d0f0d50d6'},
    'privacy-warner': {11: '4a5ea6ea8e0201f7169a96ea1207557292f844b3d65a0b6e94f535f222b91da5', 2024: '2181050030fb4acc9bf9560cdd60ca157f5819b21908972c619db3126daf93e2'},
    'privacy-warner-reverse-cap': {11: 'f06b4d91303339c31d7954c2c4393ab35a87163ede9d3d7378a1980cefc40e8b', 2024: '5d8f264e0f08ab3778cb67e2b694528232beea0959e8c80d8beb9ab8b498f10c'},
    'saturation-scan': {11: '5bbb0b4aba27de8b570738add7801aa28f0032221f9b35c094f63d563ef9e386', 2024: 'f402e5c073be9e4ac46a02828e9e35b9c08a908816e1146ef77b60c05f6850de'},
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
