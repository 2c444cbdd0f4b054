import contextlib
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

import kleinprym
from kleinprym import acceptance, cli, periods, projline
from kleinprym.algebra import MAX_PRECISION_BITS
from kleinprym.acceptance import CriterionResult
from kleinprym.cli import COMMANDS, _json, main
from kleinprym.errors import DomainError, InternalInvariantError, PrecisionError
from kleinprym.family import CurveLabel, check_domain, curve_equation
from kleinprym.moduli import phi_params
from kleinprym.periods import periods_report
from kleinprym.projline import CONVENTIONS
from moduli_oracle import phi_tuple_raw


class Result(NamedTuple):
    exit_code: int
    output: str
    stderr: str


def run(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return Result(code, out.getvalue(), err.getvalue())


def test_involution_report():
    result = run("involution", "--a", "0", "--b", "1")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["phi_params"] == ["-6", "-10"]
    assert report["j_pair_bottom"] == ["1728", "21952/9"]
    assert report["consistency"]["fiber_invariants_match"]


def test_phi_undefined_exits_1(capsys):
    assert main(["involution", "--a", "1", "--b", "-1"]) == 1
    assert "a + b = 0" in capsys.readouterr().err


def test_json_output_is_deterministic():
    a = run("analyze", "--a", "1/3", "--b", "5").output
    b = run("analyze", "--a", "1/3", "--b", "5").output
    assert a == b
    report = json.loads(a)
    assert all(report["quotient_identities_verified"].values())
    assert report["fixed_points"]["sigma"]["count"] == 4
    assert report["fixed_points"]["iota_tau"]["count"] == 0


# sha256 of the default JSON; the exact layer's output must stay byte-identical
PINNED_DIGESTS = {
    ("analyze", "7/5", "-13/4"):
        "8877b8ba6bfac06d4dce4fece6dce95c8568a4b904cf77a90b74a9ec50c7ec30",
    ("involution", "7/5", "-13/4"):
        "b82f753998e01bbb6475e7abbf1fffcb9a5fd5c8755e4a56b9e2be4a6ecef79c",
    ("analyze", "765431/999983", "-123457/1000000"):
        "c0e0585a0a084b90b21cd7a9cbec505ef1b0ec20aa540de1251b6d3b64a45008",
    ("involution", "765431/999983", "-123457/1000000"):
        "e4021c61a5b847bbfc681e7f2ead9c21185e584249093fcdc12723423dc0b5ce",
    ("analyze", "-604837/999931", "918273/999961"):
        "3800eb1617b1e6ae8930cc957f20601b27e5121bf2e476e4d37572a27940895c",
    ("involution", "-604837/999931", "918273/999961"):
        "236a880e686c2685abf4f8abfd186334e4bab314d91f13471ebdee272007360d",
}


@pytest.mark.parametrize("command,a,b", sorted(PINNED_DIGESTS))
def test_exact_reports_match_pinned_digests(command, a, b):
    output = run(command, "--a", a, "--b", b).output
    assert hashlib.sha256(output.encode()).hexdigest() == PINNED_DIGESTS[command, a, b]


# sha256 of `analyze --format text`, whose fixed-point records print in
# insertion order, at the two pinned points of height 10^6
PINNED_TEXT_DIGESTS = {
    ("765431/999983", "-123457/1000000"):
        "207b0f1620ef94d27b53259a50869d545506bf5f11fa90e3a13a7860ddb68431",
    ("-604837/999931", "918273/999961"):
        "3a1c52de20c7b080b822b90e5004e9325a9c878aa14d2a6978ce900354da370a",
}


@pytest.mark.parametrize("a,b", sorted(PINNED_TEXT_DIGESTS))
def test_analyze_text_matches_pinned_digests(a, b):
    output = run("analyze", "--a", a, "--b", b, "--format", "text").output
    assert hashlib.sha256(output.encode()).hexdigest() == PINNED_TEXT_DIGESTS[a, b]


# sha256 of `involution` under each convention and format, at the pinned
# points above; "ordered" and "pair-unordered" agree, as normalisation does
# not read the pair's ordering and the verdicts list every convention
PINNED_INVOLUTION_DIGESTS = {
    ("7/5", "-13/4", "ordered", "json"):
        "b82f753998e01bbb6475e7abbf1fffcb9a5fd5c8755e4a56b9e2be4a6ecef79c",
    ("7/5", "-13/4", "ordered", "text"):
        "dc86c893064684ba3dfc2bb5d2543f80ea006361f1f040536d460fadd0b78405",
    ("7/5", "-13/4", "pair-unordered", "json"):
        "b82f753998e01bbb6475e7abbf1fffcb9a5fd5c8755e4a56b9e2be4a6ecef79c",
    ("7/5", "-13/4", "pair-unordered", "text"):
        "dc86c893064684ba3dfc2bb5d2543f80ea006361f1f040536d460fadd0b78405",
    ("7/5", "-13/4", "all-unordered", "json"):
        "b6341f67d6bf2987bbb570ac8fe4f7b0d9215bdc8ed7328c5f9a4d9862a87833",
    ("7/5", "-13/4", "all-unordered", "text"):
        "df968ea0a7737b6f9d614550edf3c69534ead226936dd149d938104b8c93baee",
    ("765431/999983", "-123457/1000000", "ordered", "json"):
        "e4021c61a5b847bbfc681e7f2ead9c21185e584249093fcdc12723423dc0b5ce",
    ("765431/999983", "-123457/1000000", "ordered", "text"):
        "47cdf1c37101a0cde84b3f7e3b53dce994c6442363893f553fc3b1d012344491",
    ("765431/999983", "-123457/1000000", "pair-unordered", "json"):
        "e4021c61a5b847bbfc681e7f2ead9c21185e584249093fcdc12723423dc0b5ce",
    ("765431/999983", "-123457/1000000", "pair-unordered", "text"):
        "47cdf1c37101a0cde84b3f7e3b53dce994c6442363893f553fc3b1d012344491",
    ("765431/999983", "-123457/1000000", "all-unordered", "json"):
        "6293c2629b7b541086c5fb2717f4012991e62517b387aac25c8c79800fc69b37",
    ("765431/999983", "-123457/1000000", "all-unordered", "text"):
        "80edee2e9d6a892d619cfcee3ac59e22a527bf25a5852030189795fc8a6982a1",
    ("-604837/999931", "918273/999961", "ordered", "json"):
        "236a880e686c2685abf4f8abfd186334e4bab314d91f13471ebdee272007360d",
    ("-604837/999931", "918273/999961", "ordered", "text"):
        "312bdf545d39dff45d778055c83e83f4d716c29eb75ce61deb89199b9e21e878",
    ("-604837/999931", "918273/999961", "pair-unordered", "json"):
        "236a880e686c2685abf4f8abfd186334e4bab314d91f13471ebdee272007360d",
    ("-604837/999931", "918273/999961", "pair-unordered", "text"):
        "312bdf545d39dff45d778055c83e83f4d716c29eb75ce61deb89199b9e21e878",
    ("-604837/999931", "918273/999961", "all-unordered", "json"):
        "efebfbea4a7a1f54584be852ad78d5bb9d07f5c2a8a729d811e9cc6b5da564fc",
    ("-604837/999931", "918273/999961", "all-unordered", "text"):
        "9bbf81458259e3259fd4cd48d02ae7c7bfbc99424dde2a5a98ad05c5884447b8",
}


@pytest.mark.parametrize("a,b,convention,fmt", sorted(PINNED_INVOLUTION_DIGESTS))
def test_involution_reports_match_pinned_digests(a, b, convention, fmt):
    output = run("involution", "--a", a, "--b", b, "--convention", convention,
                 "--format", fmt).output
    assert hashlib.sha256(output.encode()).hexdigest() == \
        PINNED_INVOLUTION_DIGESTS[a, b, convention, fmt]


# sha256 of the default periods JSON; a change to a printed period, tau, j
# delta, tolerance or Riemann value must re-pin these on purpose
PINNED_PERIODS_DIGESTS = {
    ("7/5", "-13/4", "128"):
        "bce1ab3cbbddb2a46a17dbb07de5428b55b2e9b93cd2c0bcac97337db8080ec3",
    ("7/5", "-13/4", "256"):
        "3ab7fe78fb61f4c8d9bca1fb5a80b65395371bae397e8b17d25254db781c3fc0",
    ("0", "1", "256"):
        "3f0687b91cc12fa78ef512f3162489585e9066b5c3643f1e597a9cb5a086a530",
    ("7/5", "14000000001/10000000000", "1024"):
        "c54fa92345ed81f3928b33736f311b119d3c8899e8631658e4258979906417e0",
    # 4096 bits; lambda = 1/2, so E_is_t's lattice is square; 10^-40 from a = b
    ("7/5", "-13/4", "4096"):
        "12fee77b7fc778c289ee773e075210ee04d7edfa09749c006bbee161ebd28229",
    ("3", "1", "256"):
        "fba8440d0bdc0dfc3c9c3e6d219f21e0a588820437878e1feb8bbd44306035de",
    ("7/5", "14000000000000000000000000000000000000001/"
            "10000000000000000000000000000000000000000", "1024"):
        "a8af5f17b388ef5b48bbc7b7300a75f6262dc1725232de00c0e64bb6bc8d64a1",
}


@pytest.mark.parametrize("a,b,bits", sorted(PINNED_PERIODS_DIGESTS))
def test_periods_reports_match_pinned_digests(a, b, bits):
    output = run("periods", "--a", a, "--b", b, "--bits", bits).output
    assert hashlib.sha256(output.encode()).hexdigest() == PINNED_PERIODS_DIGESTS[a, b, bits]


# sha256 of the torsion reports, pinned while subgroups were still listed by
# enumeration; a change to a printed torsion class must re-pin these on purpose
PINNED_TORSION_DIGESTS = {
    ("torsion --d 2", "json"):
        "76830fd39fec45e2f2b0b2e083f11e5a2dcbf7066092ad032069943466e31461",
    ("torsion --d 3", "json"):
        "989633c72f3b2f376b29e79ad2fa8cde8a2d92d24c6bb69a6a2a3b39cd82fee0",
    ("torsion --d 4", "json"):
        "4f1878dc2de15cd5b7ec552cb6c81a133a8a41e166cdc848e94ba49864b55686",
    ("torsion --d 5", "json"):
        "1b977989076572ebe772e316a192586d07c266ff97208a229105b552a7d41176",
    ("torsion --d 6", "json"):
        "e43a4b6d11290ee135624e21403b7972095137cba9d2dc5d63a5b5227005fbc0",
    ("torsion --d 7", "json"):
        "9df37ac86f54cd103bd3630b63692d3e85676fbf05c61cb4aad9354c1b85d7a9",
    ("torsion --d 8", "json"):
        "5c58c28bfe4cb5c47f0304e3047d63e233e82cc30a6e0cb570509e392d5f2d2f",
    ("torsion --d 9", "json"):
        "5920c681dc9a471ec07b91abb4787e17d4a3b5e61a816e5a81e63a4b86e67e6f",
    ("torsion --d 10", "json"):
        "b2178476ceceb7a2b0e79651bf67ef0e8c5ab02a96df4d246430dbedb4e36ccd",
    ("torsion --d 11", "json"):
        "5cc2df9869d7978d8bb5a93bd4f55cc0924602d1f4817fa68b22fc202c378667",
    ("torsion --d 12", "json"):
        "d95b8be3cede1897a2fbd5ffb697661e92275c1c3deb00fbbf5b9ab2644711a5",
    ("example-surj", "json"):
        "3e0e392ecbcf81197407342c2e55cb0f43674f0495e5715ec3cff558446f1cc0",
    ("torsion --d 2", "text"):
        "8f46b406f807a329b190bf1ac65fdfa0c1739eb35dd31e8f4738c79e59977d31",
    ("torsion --d 3", "text"):
        "4926e5c85afeec30b8958e20330be1cea11ca6643994ea02e459d144d9fb9956",
    ("torsion --d 4", "text"):
        "f0e7ad302ac37d6ad2d437d27bf6b8d094c6dbee6730b0b7b40b6b0b938e72e0",
    ("torsion --d 5", "text"):
        "fc3eb4b9743a9738293a1f571c3f6d4020611d587f4234cbd9df0d9fc7655cf6",
    ("torsion --d 6", "text"):
        "ee466571b0bed53defb8a65c9add8fc1656e0497a5816786d06902a058889b60",
    ("torsion --d 7", "text"):
        "bfcdd2bd1c25689eccd3cae110f3d7d14be0151ead483ece1383278dc6c9ff62",
    ("torsion --d 8", "text"):
        "f22b4f8bfbe6fc1fb794f90c1deeb764c99faf210a46f6e5998a4410a061435f",
    ("torsion --d 9", "text"):
        "ae112101b6934466678c5f715ecbd639025427ec5f6e37be3f04b084a5da79cc",
    ("torsion --d 10", "text"):
        "7bb806885e4b78b9721272b9126092b719bc767d4f3869cfe4d5b91758f13605",
    ("torsion --d 11", "text"):
        "1bd4c21ecc88c61b5052b551c75b5b3ff98fe135ef4949d42b4f2ac3296bfc57",
    ("torsion --d 12", "text"):
        "dcb363a562ae413a4186b93263fcdd579f11cfaf987b58a6750884c94ae429d2",
    ("example-surj", "text"):
        "427c89ccdfdafe0dba64b1cfec4a818e36facee7fe4fd21f8de1ee18d0ecc55c",
}


@pytest.mark.parametrize("command,fmt", sorted(PINNED_TORSION_DIGESTS))
def test_torsion_reports_match_pinned_digests(command, fmt):
    output = run(*command.split(), "--format", fmt).output
    assert hashlib.sha256(output.encode()).hexdigest() == PINNED_TORSION_DIGESTS[command, fmt]


# sha256 of `normalize` output, pinned before the frame map was written in
# closed form: an affine distinguished point at each index, inf in the pair
# and in the triple tail, and coordinates of height 10^6
HEIGHT_1E6_TUPLE = "999983/1000000,-765431/999961;123457/999979,-1000000,654321/999999!1"
PINNED_NORMALIZE_DIGESTS = {
    ("3,-7/2;5,1/2,-4!0", "ordered", "json"):
        "63793b5dd051b152402742db11bc916d6f769afd45f2f2cf7ca3edef9c5b189e",
    ("3,-7/2;5,1/2,-4!0", "ordered", "text"):
        "f9990712295a5d759fc785de460e69f55db4d4f4b1d18ff86e985b472ee19191",
    ("3,-7/2;5,1/2,-4!0", "pair-unordered", "json"):
        "db4a429f8536b5b05a3b1a7e2e4ade69daa25b61254304aaa4321db855895866",
    ("3,-7/2;5,1/2,-4!0", "pair-unordered", "text"):
        "7b117d3c5550b3906ab04d8df9f9b5d8576a7a2e365159870db8efa2320ad81e",
    ("3,-7/2;5,1/2,-4!0", "all-unordered", "json"):
        "54a001771343360a8b6d31daf75a1bc407489a810855c86d73909ef70434d3fb",
    ("3,-7/2;5,1/2,-4!0", "all-unordered", "text"):
        "0aab6df16358fbe47037fc669ee1ce4406fb4bc8fea7065d1c5445a0805b1029",
    ("3,-7/2;1/2,5,-4!1", "ordered", "json"):
        "d04bd4e50ddf75bf60bdf7676516d3eb1920e37a0406be84f52256e48aa315cc",
    ("3,-7/2;1/2,5,-4!1", "ordered", "text"):
        "2b3d44461e0b716eccd25f00817bf085548dc4ea87a0f1bd9e7d64c30b849e68",
    ("3,-7/2;1/2,5,-4!1", "pair-unordered", "json"):
        "f02dc38e7fc5e0a23dc2817602d04fcf0f85c1218be9c5e25cba6eca5047ffa8",
    ("3,-7/2;1/2,5,-4!1", "pair-unordered", "text"):
        "423872ef52485d689ef8b35b4d5839a55c425bf323102560f087a8b7b583c6ff",
    ("3,-7/2;1/2,5,-4!1", "all-unordered", "json"):
        "cf930367e1dd4449dd8ccfb5165fa63cbd0a09b5fe1ec7f68b50191d8e186a05",
    ("3,-7/2;1/2,5,-4!1", "all-unordered", "text"):
        "9cfd62b6bad96af7e30a25b19ef96164d463e9042457a9b4233557f89d6a1d35",
    ("3,-7/2;1/2,-4,5!2", "ordered", "json"):
        "40f9f185f1a859e8865b28511271b316b13e6ad46559e9f080623c94ebcdc62c",
    ("3,-7/2;1/2,-4,5!2", "ordered", "text"):
        "bb1ba82bb9cae67c2aed743048661c192db2af1ddb02326420f953d1418e314d",
    ("3,-7/2;1/2,-4,5!2", "pair-unordered", "json"):
        "05ea0b64d96823d51322c08e418cc8e867df5205033e35342de51da728a7c272",
    ("3,-7/2;1/2,-4,5!2", "pair-unordered", "text"):
        "768580264917c96b0a3e2830e86001a3d8332240b7ceddff7347ae7b62b399db",
    ("3,-7/2;1/2,-4,5!2", "all-unordered", "json"):
        "a5111c541b2d2efdd3ab05836924cac1392631a71bfb0594f8fbe713842da11c",
    ("3,-7/2;1/2,-4,5!2", "all-unordered", "text"):
        "01d099d4a9bf27ee0014bd807b838139f8e366b4f09131deae2a3ac44e3a9597",
    ("inf,7;0,1,-1!1", "ordered", "json"):
        "afab91aa31f07bde0e25ab63541b5e95eb2c03177efb5bf94c0f33f6814b0735",
    ("inf,7;0,1,-1!1", "ordered", "text"):
        "76dca31d2ee4a50395a22bad2d895580f064b1279708cfb64a86a1bbf793d9cd",
    ("inf,7;0,1,-1!1", "pair-unordered", "json"):
        "d779d997fc1d6471b8f372053730818d5a7e4d4db078fa87595c0f9dd7547410",
    ("inf,7;0,1,-1!1", "pair-unordered", "text"):
        "203b89e6fd7a8e60898bc582a350f01a0afa518313af4d64f83d60104658b43c",
    ("inf,7;0,1,-1!1", "all-unordered", "json"):
        "08f7923720d704ac682b5e0e6d0daaafebae5eb652f1b9e9072c77da31a69afa",
    ("inf,7;0,1,-1!1", "all-unordered", "text"):
        "8b73551a5f4e992f0466f32ad9f1fcdb8031e46cbc9e8321e09773e98a6ef36a",
    ("4,-3/5;1,inf,9!0", "ordered", "json"):
        "890aa82a0b8bbc9e97abc72fc12f0344bb45e7b689d1e6da37b1ff494d22db3a",
    ("4,-3/5;1,inf,9!0", "ordered", "text"):
        "725f8f5d5953605874b218e11d09dc0478a12e0ee930632fb5a8926bc66f04e4",
    ("4,-3/5;1,inf,9!0", "pair-unordered", "json"):
        "f230d9b2a4f4ac0047cbeb0bd1225c4630c6160316cb0fbc4b1e03890879874b",
    ("4,-3/5;1,inf,9!0", "pair-unordered", "text"):
        "928d2703c50b40883a4992cc555cb6bbdf030f71dd3011e5af217765a1d03c27",
    ("4,-3/5;1,inf,9!0", "all-unordered", "json"):
        "1d10b5b70a26e5f77d7ceab31e9b4e55d6d53efde186a8c3b4b382016b321cd2",
    ("4,-3/5;1,inf,9!0", "all-unordered", "text"):
        "4745866b2b79c8e00706e1351ce81686bf2c050066523cd6417e3fac7f605b2b",
    (HEIGHT_1E6_TUPLE, "ordered", "json"):
        "2ee14c51d4738b6ba8d5bb81e0e1127e922515495cce0d1c646da9d6616ce07d",
    (HEIGHT_1E6_TUPLE, "ordered", "text"):
        "1767480d04b74b4f2372469d1f3af152c39629a445adf05edada858c12e24897",
    (HEIGHT_1E6_TUPLE, "pair-unordered", "json"):
        "56f594579e8dedc41f55f421dec9e38a3f99f618c0d32b7c2ffb2d0ce1de24ed",
    (HEIGHT_1E6_TUPLE, "pair-unordered", "text"):
        "d353ca5c09e4af2a0cae68634e2c73ee04f53120b8c48e15f05bf8d401eb0ee0",
    (HEIGHT_1E6_TUPLE, "all-unordered", "json"):
        "fd7a6a3effee1354faf53695db50162cf8b7c70ed44996341bd3b58045103240",
    (HEIGHT_1E6_TUPLE, "all-unordered", "text"):
        "d388d7b9ae19ed67dc1b0d1004e9e7a6864d0b5d7ce11061bda10dd17ab1c2dc",
}


@pytest.mark.parametrize("tuple_text,convention,fmt", sorted(PINNED_NORMALIZE_DIGESTS))
def test_normalize_reports_match_pinned_digests(tuple_text, convention, fmt):
    output = run("normalize", "--tuple", tuple_text, "--convention", convention,
                 "--format", fmt).output
    digest = hashlib.sha256(output.encode()).hexdigest()
    assert digest == PINNED_NORMALIZE_DIGESTS[tuple_text, convention, fmt]


@pytest.mark.parametrize("args", [
    ["analyze", "--a", "1/0", "--b", "2"],
    ["periods", "--a", "1/0", "--b", "2"],
    ["normalize", "--tuple", "1/0,3;inf,2,-2!0"],
    ["duality", "--curveE", "1/0,2", "--pointP", "0,0", "--curveF", "1,0", "--pointQ", "0,0"],
    ["duality", "--curveE", "x,2", "--pointP", "0,0", "--curveF", "1,0", "--pointQ", "0,0"],
    ["analyze", "--a", "1e3", "--b", "3"],
    ["periods", "--a", "1.5", "--b", "3"],
    ["normalize", "--tuple", "1e3,3;inf,2,-2!0"],
    ["duality", "--curveE", "1,2", "--pointP", "1e3,0", "--curveF", "1,0", "--pointQ", "0,0"],
], ids=lambda args: " ".join(args[:3]))
def test_a_malformed_rational_exits_1(args, capsys):
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "is not a rational p/q" in err
    assert "unexpected" not in err


GOOD_TOKENS = ["0", "-7/3", "inf", "oo", "5", "2", "-2", "1/2", " 3 ", "-1", "4/9", "11"]
any_token = st.sampled_from(GOOD_TOKENS + ["1/0", "", "x", "1e3"])
token_lists = st.integers(0, 4).flatmap(
    lambda n: st.lists(any_token, min_size=n, max_size=n).map(",".join))
# well-formed tuples reach the frame map; wild ones test every refusal
any_tuple_text = st.one_of(
    st.builds(lambda ts, k: f"{ts[0]},{ts[1]};{ts[2]},{ts[3]},{ts[4]}!{k}",
              st.permutations(GOOD_TOKENS), st.integers(0, 2)),
    st.builds(lambda pair, sep, triple, mark: pair + sep + triple + mark,
              token_lists, st.sampled_from([";", ";;", ""]), token_lists,
              st.sampled_from(["!0", "!2", "!3", "!-1", "!x", "!", "", "!0!1"])))


@settings(max_examples=200)
@given(any_tuple_text)
def test_normalize_of_any_tuple_text_exits_0_or_1(text):
    for convention in CONVENTIONS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["normalize", "--tuple", text, "--convention", convention])
        assert code in (0, 1), (text, err.getvalue())
        assert "unexpected error" not in err.getvalue()


def test_text_format_is_projection_of_json():
    as_json = json.loads(run("torsion", "--d", "2").output)
    as_text = run("torsion", "--d", "2", "--format", "text").output
    for key in as_json:
        assert key in as_text
    assert "all_ok: True" in as_text


def test_normalize_round_trip():
    result = run("normalize", "--tuple", "-1/3,-5;inf,2,-2!0", "--convention", "ordered")
    report = json.loads(result.output)
    assert report["normalizations"] == [{
        "a": "1/3", "b": "5", "witness_map": ["1", "0", "0", "1"]}]


def test_normalize_all_unordered_gives_both_signs():
    result = run("normalize", "--tuple", "-1,-5;inf,2,-2!0",
                 "--convention", "all-unordered")
    report = json.loads(result.output)
    got = {(n["a"], n["b"]) for n in report["normalizations"]}
    assert got == {("1", "5"), ("-1", "-5")}


def test_duality_certificate():
    result = run("duality", "--curveE", "-7,-6", "--pointP", "3,0",
                 "--curveF", "-19,-30", "--pointQ", "5,0", "--assert-nonisogenous")
    cert = json.loads(result.output)
    assert cert["premise_holds"]
    assert cert["conclusion"] == "A is not isomorphic to its dual"


# sha256 of `duality` with E = F and P = Q a point of each kernel order, pinned
# while the Velu sum still listed the whole kernel and de-duplicated it
PINNED_DUALITY_DIGESTS = {
    ("-387,766", "27,100"):
        "8df147e695828912a71c91b7016c70a16c351674404c21565a49b3f37e20e051",
    ("-362,-1659", "-10,31"):
        "4a1fa58500fa57d385af9878c3a7881cb3ea68c00ce008b204abaa1534c13b9b",
    ("-27,55350", "-21,-216"):
        "db2ab65510d90219da8f064dbf42002eba11cef8cde8c6e667c7200556f16f98",
    ("-387,766", "-13,60"):
        "7e58cba42cdc2417d89386a92ea6ae4cd095a0eb90f658da98bfd0780e4ab2fd",
    ("-43,166", "-5,16"):
        "bcb5c17b35e7872606164cd9ba6f20234fb2bc911a8463ebec5a6c5d28b3202a",
    ("-44091/16,1652427/32", "-141/4,-324"):
        "a9f94f0681c3e18b4ed203983b5a24ae28236e8fc971143ebdb3a5912eecdf58",
    ("-219,1654", "-13,48"):
        "fe677602f5102f907ee2f3ca57c7ef8a29aa06052e6f8b7ad53ab9eecf079af2",
    ("-58347,3954150", "-213,-2592"):
        "780308fbc285b35215773c312cb59123a5c0f7d546ec2735f4ee7fbbc9372286",
    ("-33339627,73697852646", "3027,-22680"):
        "1d9684f494207a4cdec92ffc087169d172b3b3599c3016e0d48ce108463135ec",
}


@pytest.mark.parametrize("curve,point", sorted(PINNED_DUALITY_DIGESTS))
def test_duality_matches_pinned_digests(curve, point):
    output = run("duality", "--curveE", curve, "--pointP", point,
                 "--curveF", curve, "--pointQ", point, "--assert-nonisogenous").output
    assert hashlib.sha256(output.encode()).hexdigest() == PINNED_DUALITY_DIGESTS[curve, point]


def test_duality_without_assertion_is_gated():
    result = run("duality", "--curveE", "-7,-6", "--pointP", "3,0",
                 "--curveF", "-19,-30", "--pointQ", "5,0")
    assert json.loads(result.output)["conclusion"].startswith("hypothesis unverified")


@pytest.mark.parametrize("curve_e,point_p,curve_f,point_q,line", [
    ("1,0", "1,1", "1,0", "0,0", "error: (1, 1) is not on y^2 = x^3 + 1 x + 0"),
    ("-7,-6", "3,0", "0,1", "0,1", "error: kernel orders differ: 2 != 3"),
    ("0,-2", "3,5", "1,0", "0,0", "error: point order exceeds 12"),
    ("-3,2", "1,0", "1,0", "0,0", "error: 4p^3 + 27q^2 = 0"),
], ids=["off the curve", "orders 2 and 3", "infinite order", "singular"])
def test_duality_refusals_print_one_line(curve_e, point_p, curve_f, point_q, line):
    result = run("duality", "--curveE", curve_e, "--pointP", point_p,
                 "--curveF", curve_f, "--pointQ", point_q, "--assert-nonisogenous")
    assert (result.exit_code, result.output, result.stderr) == (1, "", line + "\n")


@pytest.mark.parametrize("args", [
    ["normalize", "--tuple", "1" * 10_000],
    ["duality", "--curveE", "1" * 10_000, "--pointP", "0,0", "--curveF", "1,0",
     "--pointQ", "0,0"],
    ["duality", "--curveE", "1,0", "--pointP", "0,0", "--curveF", "1,0",
     "--pointQ", "1" * 10_000],
], ids=["--tuple", "--curveE", "--pointQ"])
def test_an_error_echoes_a_long_value_briefly(args):
    result = run(*args)
    assert result.exit_code == 1
    assert "(10000 characters)" in result.stderr
    assert len(result.stderr.encode()) < 200


def test_example_surj_lists_kernel():
    report = json.loads(run("example-surj").output)
    assert len(report["ker_phi_A"]) == 4
    assert report["all_ok"]


def test_periods_defaults_to_256_bits():
    report = json.loads(run("periods", "--a", "0", "--b", "1").output)
    assert report["precision_bits"] == 256


def test_analyze_builds_each_model_once(monkeypatch):
    calls = []

    def counted(label, params):
        calls.append(label)
        return curve_equation(label, params)

    for where in ("kleinprym.cli", "kleinprym.family"):
        monkeypatch.setattr(f"{where}.curve_equation", counted)
    assert run("analyze", "--a", "7/5", "--b", "-13/4").exit_code == 0
    assert len(calls) == 10 and set(calls) == set(CurveLabel)


def test_involution_builds_each_model_once(monkeypatch):
    # the four models of the fibre invariants at (a, b) and at phi(a, b)
    models, phis = [], []

    def counted_model(label, params):
        models.append((label, params))
        return curve_equation(label, params)

    def counted_phi(params):
        phis.append(params)
        return phi_params(params)

    monkeypatch.setattr("kleinprym.moduli.curve_equation", counted_model)
    monkeypatch.setattr("kleinprym.moduli.phi_params", counted_phi)
    assert run("involution", "--a", "7/5", "--b", "-13/4").exit_code == 0
    assert len(models) == len(set(models)) == 8
    assert phis == [check_domain(Fraction(7, 5), Fraction(-13, 4))]


@pytest.mark.parametrize("convention", ["ordered", "pair-unordered", "all-unordered"])
def test_involution_normalizes_nothing(monkeypatch, convention):
    # the report reads the raw tuple's normal forms off -phi(a, b), and the
    # verdicts read the canonical tuples' normal forms, so no frame map is built
    calls = []

    def counted(*points):
        calls.append(points)
        return to_frame(*points)

    to_frame = projline._to_frame
    monkeypatch.setattr("kleinprym.projline._to_frame", counted)
    # the count sees the normalisation of phi(7/5, -13/4)'s raw tuple ...
    assert run("normalize", "--tuple", "13/4,-7/5;inf,-3/20,-2!0",
               "--convention", convention).exit_code == 0
    assert len(calls) == (2 if convention == "all-unordered" else 1)
    calls.clear()
    # ... and the report on that point makes none
    assert run("involution", "--a", "7/5", "--b", "-13/4",
               "--convention", convention).exit_code == 0
    assert calls == []


@pytest.mark.parametrize("convention", sorted(CONVENTIONS))
def test_involution_makes_no_projective_object(monkeypatch, convention):
    # the report writes the raw tuple down as text from (a, b)
    def refuse(*args):
        raise AssertionError("the involution report made a projective object")

    monkeypatch.setattr(projline.ProjectivePoint, "__init__", refuse)
    monkeypatch.setattr(projline.MarkedTuple, "__post_init__", refuse)
    for a, b, fmt in (("7/5", "-13/4", "json"), ("1", "3", "json"), ("1", "3", "text")):
        assert run("involution", "--a", a, "--b", b, "--convention", convention,
                   "--format", fmt).exit_code == 0


def _phi_defined(ab):
    try:
        return check_domain(*ab).phi_defined
    except DomainError:
        return False


def _sides(height):
    return st.builds(Fraction, st.integers(-height, height), st.integers(1, height))


# heights 50 and 10^6, and the line a + b = 4 on which the raw tuple returns (a, b)
PHI_POINTS = st.one_of(st.tuples(_sides(50), _sides(50)), st.tuples(_sides(10**6), _sides(10**6)),
                       _sides(50).map(lambda a: (a, 4 - a))).filter(_phi_defined)


@example(ab=(Fraction(1), Fraction(3)))
@example(ab=(Fraction(5), Fraction(-1)))
@example(ab=(Fraction(7, 5), Fraction(-13, 4)))
@given(ab=PHI_POINTS)
def test_involution_prints_the_raw_tuple_that_the_oracle_builds(ab):
    result = run("involution", "--a", str(ab[0]), "--b", str(ab[1]))
    raw = json.loads(result.output)["consistency"]["raw_tuple_image"]
    assert raw == phi_tuple_raw(check_domain(*ab)).to_string()


# each command refuses a pair off the domain with the first of a = b,
# a^2 = 4, b^2 = 4 that it breaks, on one stderr line
COLLAPSE = "a = b collapses the two quartic factors"
A_ROOT, B_ROOT = (f"{x}^2 = 4 gives a repeated Weierstrass root" for x in "ab")
DOMAIN_REFUSALS = {
    ("1/3", "1/3"): COLLAPSE, ("2", "2"): COLLAPSE, ("-2", "-2"): COLLAPSE,
    ("2", "5"): A_ROOT, ("-2", "5"): A_ROOT, ("2", "-2"): A_ROOT, ("-2", "2/1"): A_ROOT,
    ("5", "2"): B_ROOT, ("5", "-2"): B_ROOT,
}


@pytest.mark.parametrize("command", ["analyze", "involution", "periods"])
@pytest.mark.parametrize("a,b", sorted(DOMAIN_REFUSALS))
def test_a_pair_off_the_domain_exits_1_with_its_condition(command, a, b):
    assert run(command, "--a", a, "--b", b) == (1, "", f"error: {DOMAIN_REFUSALS[a, b]}\n")


def test_periods_rejects_tiny_bits():
    assert main(["periods", "--a", "0", "--b", "1", "--bits", "16"]) == 1


@pytest.mark.parametrize("a,b", [
    # -a and -2 agree in float64
    ("200000000000000000001/100000000000000000000", "1/3"),
    # -a, -2 and -b, 2 agree at the working precision
    (str(2 + Fraction(1, 10**100)), str(-2 + Fraction(1, 10**100))),
], ids=["float64", "working-precision"])
def test_periods_with_coincident_roots_does_not_crash(a, b):
    try:
        periods_report(check_domain(Fraction(a), Fraction(b)), 256)
    except PrecisionError:
        expected = 1
    else:
        expected = 0
    assert main(["periods", "--a", a, "--b", b]) == expected


def test_j_closure_is_relative_to_the_size_of_j():
    # E_is_t has j about 1e200 here and misses it by 2.4e-25, far above the
    # tolerance 2^(4 - 1024/4) but far below it relative to |j|
    a = str(2 + Fraction(1, 10**100))
    assert main(["periods", "--a", a, "--b", "1/3", "--bits", "1024"]) == 0


def test_j_closure_holds_where_a_float_tolerance_underflows():
    # 2^(4 - bits/4) is below the smallest float64 once bits passes 4300, and
    # the report prints it and the deltas as strings, which do not underflow
    assert math.ldexp(1.0, 4 - 4400 // 4) == 0.0
    result = run("periods", "--a", "7/5", "--b", "-13/4", "--bits", "4400")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert Fraction(report["j_delta_tolerance"]) > 0
    assert any(Fraction(d) > 0 for d in report["analytic_vs_exact_j"].values())


CLOSURE_POINT = ["periods", "--a", "7/5", "--b", "-13/4", "--bits", "128"]


def test_periods_refuses_a_j_that_misses_the_closure(monkeypatch):
    # the report's j values all come from the theta constants of the real
    # q-series at the partners' taus
    assert main(CLOSURE_POINT) == 0
    true_thetas = periods._real_theta_squares

    def off_thetas(q4, bits):
        A, *rest = true_thetas(q4, bits)
        return A * (1 + mpmath.ldexp(1, -bits // 8)), *rest

    monkeypatch.setattr(periods, "_real_theta_squares", off_thetas)
    assert main(CLOSURE_POINT) == 1


def test_periods_refuses_a_derived_j_that_misses_the_closure(monkeypatch):
    # only the duplication formulas of E_t, E_st and E_s are off
    assert main(CLOSURE_POINT) == 0
    true_eighths = periods._isogenous_eighths
    bits = 128

    def off_eighths(kernel, *thetas):
        a, b, c = true_eighths(kernel, *thetas)
        return a * (1 + mpmath.ldexp(1, -bits // 8)), b, c

    monkeypatch.setattr(periods, "_isogenous_eighths", off_eighths)
    assert main(CLOSURE_POINT) == 1


def test_periods_answers_where_only_the_derived_quotients_are_near_the_cuts(capsys):
    # 1e-10 from a = b the cross-ratios of the own roots of E_t, E_st and E_s
    # are too close to the cuts for 128 bits; the report takes those three
    # from E_is_t, E_is_it and E_s_it, whose rational roots -a, -b, +-2 give
    # an exact lambda
    point = ["periods", "--a", "7/5", "--b", "14000000001/10000000000"]
    reports = []
    for bits in ("128", "1024"):
        assert main(point + ["--bits", bits]) == 0
        reports.append(json.loads(capsys.readouterr().out)["periods"])
    report, reference = reports
    for label, cells in reference.items():
        for name, cell in cells.items():
            got, want = (complex(float(c["re"]), float(c["im"]))
                         for c in (report[label][name], cell))
            assert abs(got - want) <= 2 ** -50 * abs(want), (label, name)


def test_periods_answers_1e_minus_40_from_a_equals_b():
    # the rounded roots -a and -b agreed too closely for 128 bits to rank the
    # orderings; exact Legendre data need no ranking
    b = str(Fraction(7, 5) + Fraction(1, 10**40))
    assert main(["periods", "--a", "7/5", "--b", b, "--bits", "128"]) == 0


def test_failed_selftest_exits_2(monkeypatch):
    failing = CriterionResult(1, "stub", False, "forced failure", 0.0, 1.0)
    monkeypatch.setattr(acceptance, "run_all", lambda: [failing])
    assert main(["selftest"]) == 2


def test_redirected_stdout_is_not_kept_alive():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["torsion", "--d", "2"]) == 0
    ref = weakref.ref(out)
    del out
    gc.collect()
    assert ref() is None


def test_exact_commands_do_not_import_mpmath():
    script = """
import contextlib, io, sys
import kleinprym
from kleinprym.cli import main
assert "click" not in sys.modules, "click imported"
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["torsion", "--d", "2"]) == 0
assert "mpmath" not in sys.modules, "mpmath imported"
from kleinprym import periods
assert all(getattr(kleinprym, name) is getattr(periods, name)
           for name in ("ComplexApprox", "PeriodPair", "PrymPeriodMatrix", "elliptic_periods_agm"))
"""
    done = subprocess.run([sys.executable, "-c", script], env=SRC_ENV,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_no_command_does_polynomial_arithmetic():
    # the models and quotient maps are stored integer numerators, so every
    # subcommand and selftest succeeds with the Polynomial members that build
    # or combine polynomials made to raise before kleinprym.family is imported
    script = """
import contextlib, importlib.util, io, sys
spec = importlib.util.find_spec("kleinprym")
package = sys.modules["kleinprym"] = importlib.util.module_from_spec(spec)
from kleinprym.algebra import Polynomial
assert "kleinprym.family" not in sys.modules

def refuse(*args, **kwargs):
    raise AssertionError("polynomial arithmetic")

for name in ("__init__", "_lowest", "_plus", "__mul__", "__rmul__"):
    setattr(Polynomial, name, refuse)
spec.loader.exec_module(package)
from kleinprym.cli import main
for argv in (["analyze", "--a", "1/3", "--b", "-5"], ["involution", "--a", "1", "--b", "3"],
             ["normalize", "--tuple", "-1/3,-5;inf,2,-2!0"],
             ["periods", "--a", "7/5", "--b", "-13/4"], ["torsion", "--d", "4"],
             ["example-surj"], ["selftest"],
             ["duality", "--curveE", "-7,-6", "--pointP", "3,0", "--curveF", "-19,-30",
              "--pointQ", "5,0", "--assert-nonisogenous"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
"""
    done = subprocess.run([sys.executable, "-c", script], env=SRC_ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(kleinprym.__file__).resolve().parent.parent))
MODULE = [sys.executable, "-m", "kleinprym.cli"]


def test_the_module_reads_sys_argv():
    done = subprocess.run(MODULE + ["torsion", "--d", "2"], env=SRC_ENV,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == \
        PINNED_TORSION_DIGESTS["torsion --d 2", "json"]
    done = subprocess.run(MODULE + ["analyze", "--a", "1"], env=SRC_ENV,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1 and "'--b'" in done.stderr


def test_a_closed_stdout_exits_1_quietly():
    # as `kleinprym torsion --d 2 | head -0` would
    proc = subprocess.Popen(MODULE + ["torsion", "--d", "2"], env=SRC_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1 and err == b""


# ---------------------------------------------------------------------------
# The parser


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("args", [
    ["--a", "7/5", "--b", "-13/4"],
    ["--a=7/5", "--b=-13/4"],
    ["--b", "-13/4", "--a", "7/5"],
    ["--format", "json", "--b", "-13/4", "--convention", "pair-unordered", "--a", "7/5"],
    ["--a", "1", "--b", "2", "--a", "7/5", "--b=-13/4"],
    ["--format", "text", "--a", "7/5", "--b", "-13/4", "--format=json"],
], ids=" ".join)
def test_every_spelling_of_one_call_prints_the_pinned_report(args):
    result = run("involution", *args)
    assert result.exit_code == 0 and result.stderr == ""
    assert digest(result.output) == PINNED_DIGESTS["involution", "7/5", "-13/4"]


def test_a_flag_takes_no_value_and_may_come_anywhere():
    options = ["--curveE", "-7,-6", "--pointP", "3,0", "--curveF", "-19,-30", "--pointQ", "5,0"]
    first = run("duality", "--assert-nonisogenous", *options)
    last = run("duality", *options, "--assert-nonisogenous")
    assert first == last and first.exit_code == 0
    assert json.loads(first.output)["conclusion"] == "A is not isomorphic to its dual"


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_prints_its_help(command):
    result = run(command, "--help")
    assert result.exit_code == 0 and result.stderr == ""
    assert result.output.startswith(f"Usage: kleinprym {command} [OPTIONS]\n")
    _, options = COMMANDS[command]
    assert all(flag in result.output for flag in list(options) + ["--help"])


def test_help_comes_before_checking_the_values():
    assert run("torsion", "--d", "13", "--help") == run("torsion", "--help")


def test_the_program_prints_its_help():
    result = run("--help")
    assert result.exit_code == 0 and result.stderr == ""
    assert result.output.startswith("Usage: kleinprym COMMAND [OPTIONS]\n")
    assert all(f"\n  {command} " in result.output for command in COMMANDS)


@pytest.mark.parametrize("args,named", [
    pytest.param(["involution", "--a", "1", "--b", "2", "--bogus", "3"], "'--bogus'",
                 id="unknown-option"),
    pytest.param(["analyze", "--a", "1"], "'--b'", id="missing-option"),
    pytest.param(["analyze", "--a", "1", "--b", "2", "extra"], "'extra'", id="extra-argument"),
    pytest.param(["analyze", "--a"], "'--a'", id="missing-value"),
    pytest.param(["analyze", "--a", "1", "--b", "2", "--format", "xml"], "'--format'",
                 id="bad-choice"),
    pytest.param(["involution", "--a", "1", "--b", "2", "--convention=none"], "'--convention'",
                 id="bad-choice-after-equals"),
    pytest.param(["torsion", "--d", "13"], "'--d'", id="level-above-range"),
    pytest.param(["torsion", "--d", "1"], "'--d'", id="level-below-range"),
    pytest.param(["periods", "--a", "1", "--b", "3", "--bits", "abc"], "'--bits'",
                 id="bits-not-an-integer"),
    # the grammar of --a and --b: no "_" and no digits outside ASCII
    pytest.param(["torsion", "--d", "1_0"], "'--d'", id="level-underscore"),
    pytest.param(["torsion", "--d", "\u0663"], "'--d'", id="level-non-ascii"),
    pytest.param(["periods", "--a", "1", "--b", "3", "--bits", "1_28"], "'--bits'",
                 id="bits-underscore"),
    pytest.param(["periods", "--a", "1", "--b", "3", "--bits", "\u0661\u0662\u0668"], "'--bits'",
                 id="bits-non-ascii"),
    pytest.param(["duality", "--assert-nonisogenous=yes"], "'--assert-nonisogenous'",
                 id="flag-with-value"),
    pytest.param(["nosuch"], "'nosuch'", id="unknown-command"),
    pytest.param(["--format", "json"], "'--format'", id="option-before-command"),
    pytest.param([], "no command", id="empty"),
])
def test_a_malformed_command_line_exits_1_with_a_usage_line(args, named):
    result = run(*args)
    assert result.exit_code == 1 and result.output == ""
    usage, error = result.stderr.splitlines()
    assert usage.startswith("usage: kleinprym ")
    assert error.startswith("error: ") and named in error


@pytest.mark.parametrize("index", ["\u0660", "0_0"], ids=["non-ascii", "underscore"])
def test_the_tuple_index_is_a_sign_and_ascii_digits(index):
    result = run("normalize", "--tuple", "0,1;inf,2,-2!" + index)
    assert result.exit_code == 1 and result.output == ""
    assert "is not an integer" in result.stderr


def test_a_rational_past_the_digit_bound_is_refused_briefly():
    limit = sys.get_int_max_str_digits()
    result = run("analyze", "--a", "7" * (limit + 1), "--b", "3")
    assert result.exit_code == 1
    assert f"more than {limit} digits" in result.stderr and len(result.stderr) < 200


def test_periods_refuses_bits_past_the_ceiling_before_any_work(monkeypatch):
    def no_model(label, params):
        raise AssertionError("a model was built")

    monkeypatch.setattr(periods, "curve_equation", no_model)
    result = run("periods", "--a", "0", "--b", "1", "--bits", str(MAX_PRECISION_BITS + 1))
    assert result.exit_code == 1
    assert f"precision_bits must be in 64..{MAX_PRECISION_BITS}" in result.stderr
    with pytest.raises(DomainError):
        periods_report(check_domain(0, 1), MAX_PRECISION_BITS + 1)


FUZZ_FLAGS = sorted({flag for _, options in COMMANDS.values() for flag in options})
# no periods or selftest: the fuzz runs only commands that take milliseconds
FUZZ_COMMANDS = ["analyze", "normalize", "involution", "torsion", "duality", "example-surj",
                 "--help", "nosuch", ""]
FUZZ_VALUES = ["0", "1", "2", "-2", "7/5", "-13/4", "1/0", "1e3", "13", "abc", "", "json",
               "text", "ordered", "all-unordered", "-1,-5;inf,2,-2!0", "-7,-6", "3,0",
               "-19,-30", "5,0", "--", "-", "--help", "--a=1", "--format=xml", "--bogus"]
command_lines = st.builds(lambda head, tail: head + tail,
                          st.lists(st.sampled_from(FUZZ_COMMANDS), max_size=1),
                          st.lists(st.sampled_from(FUZZ_FLAGS + FUZZ_VALUES), max_size=10))


@settings(max_examples=300, deadline=None)
@given(command_lines)
def test_any_command_line_exits_0_or_1(argv):
    result = run(*argv)
    assert result.exit_code in (0, 1), (argv, result.stderr)
    assert "unexpected error" not in result.stderr


# ---------------------------------------------------------------------------
# The JSON writer: json.dumps(value, sort_keys=True, indent=2, allow_nan=False),
# byte for byte
# ---------------------------------------------------------------------------


def dumps(value):
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False)


def written_or_error(write, value):
    try:
        return write(value)
    except InternalInvariantError:  # the writer's refusal of a non-finite float
        return "non-finite"
    except ValueError as exc:
        if str(exc).startswith("Out of range float values"):  # json's refusal of one
            return "non-finite"
        return "ValueError", str(exc)  # an int past the interpreter's digit bound


# every character, control characters and lone surrogates included
json_text = st.text(st.characters(exclude_categories=()), max_size=8)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.just(-0.0), json_text,
    # straddles the 4300-digit bound of int-to-str conversion
    st.builds(lambda n, sign: sign * (10 ** n - 1), st.integers(4290, 4310),
              st.sampled_from((1, -1))),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(json_text, max_size=4),
                            st.dictionaries(json_text, inner, max_size=4)),
    max_leaves=16)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_the_writer_equals_json_dumps(value):
    assert written_or_error(_json, value) == written_or_error(dumps, value)


def test_the_writer_equals_json_dumps_on_edge_values():
    limit = sys.get_int_max_str_digits()
    values = [{}, [], [[]], {"": {}}, [True, 1, False, 0, 1.0, None], -0.0,
              {"\x00\ud800é": ["\u2028", "\t"]},
              10 ** limit - 1, -(10 ** limit - 1), {"b": 1, "a": [2, "c"], "B": None}]
    for value in values:
        assert _json(value) == dumps(value)
    for value in [math.nan, [math.inf], {"a": [1.0, -math.inf]}]:
        assert written_or_error(_json, value) == written_or_error(dumps, value) == "non-finite"
    past_the_bound = written_or_error(_json, [10 ** limit])
    assert past_the_bound[0] == "ValueError"
    assert past_the_bound == written_or_error(dumps, [10 ** limit])


class Text(str):
    pass


@pytest.mark.parametrize("value", [
    (1, 2), Fraction(1, 3), Text("x"), {1: "x"}, {"a": 1, 2: "b"}, ["x", Text("y")],
    {"a": [Fraction(1, 2)]}, math.nan, {"delta": [math.inf]},
], ids=["tuple", "Fraction", "str subclass", "int key", "mixed keys", "in a list",
        "nested", "nan", "nested inf"])
def test_the_writer_refuses_a_value_no_report_holds(value):
    with pytest.raises(InternalInvariantError):
        _json(value)


def test_a_report_the_writer_refuses_exits_2(monkeypatch):
    monkeypatch.setattr(cli, "example_surj_report", lambda: {"kernel": (1, 2)})
    result = run("example-surj")
    assert result.exit_code == 2 and result.stderr.startswith("internal error: ")


NEAR_A_EQUALS_B = str(Fraction(7, 5) + Fraction(1, 10**100))
DUALITY = ("duality", "--curveE", "-7,-6", "--pointP", "3,0", "--curveF", "-19,-30",
           "--pointQ", "5,0", "--assert-nonisogenous")
EVERY_REPORT = [
    ("analyze", "--a", "7/5", "--b", "-13/4"),
    ("analyze", "--a", "765431/999983", "--b", "-123457/1000000"),
    *[("involution", "--a", "765431/999983", "--b", "-123457/1000000", "--convention", c)
      for c in CONVENTIONS],
    *[("normalize", "--tuple", "5,7;inf,1,-1!0", "--convention", c) for c in CONVENTIONS],
    DUALITY,
    ("periods", "--a", "7/5", "--b", "-13/4", "--bits", "128"),
    ("periods", "--a", "7/5", "--b", "-13/4", "--bits", "4096"),
    ("periods", "--a", "7/5", "--b", NEAR_A_EQUALS_B, "--bits", "256"),
    *[("torsion", "--d", str(d)) for d in range(2, 13)],
    ("example-surj",),
]


@pytest.mark.parametrize("argv", EVERY_REPORT, ids=lambda argv: " ".join(argv).replace(
    NEAR_A_EQUALS_B, "7/5+10^-100"))
def test_each_command_prints_its_report_as_json_dumps(argv, monkeypatch):
    reports = []
    emit = cli._emit

    def keeping_emit(report, fmt):
        reports.append(report)
        emit(report, fmt)

    monkeypatch.setattr(cli, "_emit", keeping_emit)
    result = run(*argv)
    assert result.exit_code == 0
    [report] = reports
    assert result.output == dumps(report) + "\n"


def strict_json(text):
    """json.loads, refusing the NaN and Infinity constants that strict JSON
    lacks."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


NEAR = Fraction(1, 10**100)
rationals = st.fractions(min_value=-15, max_value=15, max_denominator=10**6)
strict_json_lines = st.one_of(
    st.builds(lambda a, b: ("analyze", "--a", str(a), "--b", str(b)), rationals, rationals),
    st.builds(lambda a, b, c: ("involution", "--a", str(a), "--b", str(b), "--convention", c),
              rationals, rationals, st.sampled_from(CONVENTIONS)),
    st.builds(lambda a, b, c: ("normalize", "--tuple", f"{a},{b};inf,2,-2!0", "--convention", c),
              rationals, rationals, st.sampled_from(CONVENTIONS)),
    st.builds(lambda a, b, bits: ("periods", "--a", str(a), "--b", str(b), "--bits", str(bits)),
              rationals, rationals, st.sampled_from([64, 128, 256])),
    st.builds(lambda d: ("torsion", "--d", str(d)), st.integers(2, 5)),
    st.just(("example-surj",)), st.just(DUALITY),
)


@settings(max_examples=60, deadline=None)
# 10^-100 from each of a = b, a = 2, a = -2, b = 2 and b = -2, where j grows;
# next to a = b it passes the largest float, and the absolute deltas printed
# as floats overflowed to Infinity
@example(("periods", "--a", str(Fraction(1, 3) + NEAR), "--b", "1/3", "--bits", "128"))
@example(("periods", "--a", str(2 + NEAR), "--b", "1/3", "--bits", "128"))
@example(("periods", "--a", str(-2 + NEAR), "--b", "1/3", "--bits", "128"))
@example(("periods", "--a", "1/3", "--b", str(2 + NEAR), "--bits", "128"))
@example(("periods", "--a", "1/3", "--b", str(-2 + NEAR), "--bits", "128"))
# the ceiling, where the tolerance 2^(4 - bits/4) underflowed a float to 0.0
@example(("periods", "--a", "7/5", "--b", "-13/4", "--bits", str(MAX_PRECISION_BITS)))
@given(strict_json_lines)
def test_every_report_is_strict_json(argv):
    result = run(*argv)
    assert result.exit_code in (0, 1), (argv, result.stderr)
    if result.exit_code == 1:
        assert result.output == ""
        return
    report = strict_json(result.output)
    if argv[0] == "periods":
        tolerance = Fraction(report["j_delta_tolerance"])
        assert abs(tolerance / Fraction(2) ** (4 - int(argv[-1]) // 4) - 1) < Fraction(1, 10**16)
        assert all(Fraction(d) <= tolerance for d in report["analytic_vs_exact_j"].values())


def test_a_json_command_leaves_no_cyclic_garbage():
    lines = [("analyze", "--a", "7/5", "--b", "-13/4"), ("involution", "--a", "1", "--b", "3"),
             ("normalize", "--tuple", "5,7;inf,1,-1!0"),
             ("periods", "--a", "7/5", "--b", "-13/4", "--bits", "128"),
             ("torsion", "--d", "5"), DUALITY, ("example-surj",)]
    for argv in lines:  # imports and caches fill here
        assert run(*argv).exit_code == 0
    gc.disable()  # so that no automatic pass frees a call's garbage before we count it
    try:
        gc.collect()
        for argv in lines:
            run(*argv)
            assert gc.collect() == 0, argv
    finally:
        gc.enable()
