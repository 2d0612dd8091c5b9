"""Golden outputs: the --json result of every bundled session and command.

The JSON output is the behaviour contract. Each entry pins the sha256
of what `analogia --json <command> <session>` prints, in the order of
COMMANDS; every run exits 0. REPCHECK_GOLDEN pins the sha256 and the
exit code of `analogia --json repcheck` for every sweep the CLI offers.
A change that alters any of these bytes changes the contract and must
re-record the digest on purpose.
"""

import contextlib
import hashlib
import io

import pytest

from analogia.cli import main

from conftest import SESSIONS_DIR

COMMANDS = ("check", "classify", "report", "score", "best", "entail")

GOLDEN = {
    "closure.ana": (
        "c0f5dcd89e69d175ccd6ec2f4082311978abb71a894fa8a6ac6c9ab3de25887d",
        "bd10c53947d54537478ced11eff72f999e913b4f5c594114328a6033a06e27e0",
        "8d2946bd2f2e522cba2d9e4e1ed7beb753554dfffbf4badc46449255ac37a77c",
        "7892e3a5dbe4cb094926f974cf15ce10590c9d4b58e39d255f77cd070cf2a91b",
        "b55ffd049ca9b4ba77a141a3edf86411a6f41befe5daecadc9a1e57ed627fc3f",
        "00831472ed7939d6bbe317336bd2955285e959bb8961bea53dcfbdf99900dded",
    ),
    "combi.ana": (
        "e70dd5381a0d0b724dc32fd03aae5311f4da076ea728f28044bb61e20602a67c",
        "f00859f074f7b2982b685e1d91d6463799c867b647cc6e8ed6dbc8ebed3bab83",
        "109a0ee43477593deda83f05df2c0f2ec611b75ffad91f372dfd713756da6e3f",
        "200e7d05f04d6b38eb03f21a75e0d6990bcd304b66cf8e488ded5813eed39730",
        "4aaa51280295f8181b81fbf0136e77454f05ad35c18324d9c4ca5ff6a621b9e2",
        "ce0dedd2264081cd21bdc36bdfa2ae4e5a3b15bea69dcd3987ec2b67b3e8ed80",
    ),
    "conflict.ana": (
        "978ace7a7500340ca0d517e3f9dc797ddecaa3b21257a560fa8206c0bbbaccf2",
        "0449c411360e68ab6b6a261948a72c39ef2ef5ca6b2ff3459471f94d0061a796",
        "cb77e994f2c506ecff9b30107744ea77ac488541a0cb34922e5c1f5547dd60de",
        "ffc7938799d26757892904c85e769ec30f14985f262bd14af56ca2ab6e1598f9",
        "9c5e691ca8736d5c68b4ba24600bf3a9da8511dc0b3e8291588551e1428ab307",
        "9efd20b485c3f708f624b6620cf93369b0e5d00a28e4c07819569f9a5b4af370",
    ),
    "counts.ana": (
        "133af051126e84437f31735dbed6d6599daa36f7e7d6af173c89095d93377f8b",
        "8c7bd6840b9e0ef576380b49bb1e85493e1e33b6364bd31291a471d7299fb4d7",
        "63469bac44f04b07b1730f3e604edd4456bb7522c837534f335f2a7b93ae6d07",
        "790ec1b052f04b99d9fa1816a6b0da5149e253eeb8b3ca1d1b55ff29c6d20791",
        "29eb9527d5bcf3a7d76c0a54fa97e7cdf68b71d81f74b1778f2c7966dd75ba69",
        "a8df72b9a0b085b7905441a4a4ace2af5c6ec2a3a07de63cee9e9c6f6114c073",
    ),
    "cycle.ana": (
        "7ed297a020d6beffa628def7470ff5e51d99b083f462252a597c8456ada6820a",
        "9f3924a79175127c6b3f974e5b0be37baae06ef298fd33c198fa546e91b404a3",
        "6402ff968dd77dabea6e71d32b618104898248c22c02dc7586704cd6203b058b",
        "5c097384dd69b001fc47f2afa8f242291cf1369ceda4c980b919466e8fdfb36d",
        "ff665d4e7d960785ab2e6678f39cdb0027a61e22141af87787e1f052ff517932",
        "01ff7ae9f82e17fa3078f4d985da04c7edb94ae23fdb92ab8a1e0d796bb97a3e",
    ),
    "empty_space.ana": (
        "7b5a3f97b972e6cf9601a47051cc6697cf9734bb246dd336f88566d8445fbd08",
        "6cef671d4f61dd3cc747afe8954a4eb5c09f3f475875b39507f933aa6987c570",
        "c72e7c376e40f71a85036003d632a6b9ce4f0f7bd617551182b4eaffcfcfaaf2",
        "ec8473ce8590c805ef6a20d311566d58eca912b77e0da784e449ce42226662c5",
        "9026b5131b828f5e577d42fcf10eb7899016fbd6eee63061c58ce0aa98341a29",
        "f500e39c3344c2ccccc95e47033cc53bd7f62b51b1fcb286804a5a6aaa961e78",
    ),
    "explicit_pref.ana": (
        "4f88cfa535235a6e38f68d94e5e0e2f5dde5746db3270aa06f897e051db1f653",
        "39657cfd695d41488aa3d1c06a0e88ff9922dad6e8ef02be3ba09f50faa6ed02",
        "bf290f2f6b03089c5ef46f7e4681277d45c79cf5ec0fbd4ef1931f63ee40749b",
        "27790bdfda944ee3012a8ed18995ce7958a950eb1bd4aa10f3d73b556bdaeea6",
        "9e65aed21d64938700090270563b4f5add535da7348650fef0ecdd7c38e4957e",
        "03cfa7b95e2d61004970fd7eb9883b64e6b22d076ec41ba6dccd54f20a79c875",
    ),
    "functions.ana": (
        "a6a13e157cb5cd2d0cd4c43281d0922856d972147bc2509cd26eabc039145194",
        "367dbb33b60f49cc0a5f5a02c1402b82d5fef24dcdaf673bc16a96314883fcea",
        "6716607f85c1ab1dd4fb54167dd40d3caab75d2dcd03a0947e62303ff04b1817",
        "636052a5fb6bf8834e669e598871c5f4e1b61ce80634289acbdeb72ad640c9a8",
        "aa1d8694f8090bfc78994cb2d938a75ed997152194d2efeb48716c927b841163",
        "f6c6ed8d3fff6a16c8c84c1fbe37f75fab9556173c0d31ad42cb7136f3f97fdc",
    ),
    "identity.ana": (
        "1d82c073e715a951e8783076666843f4029a055f70afd8d9a4951d077d52d159",
        "87f974b0fd1a9c9e0816624e2990a358ebcba95240b8847cda163aac146c8cbb",
        "641977bd57ca3bf3ab2e594d745750b0160ffb9f7993ba163194455931fb4549",
        "697ff4ab85e4964e17426c2ca577a5a3da1d3a40dddba6fea1d664223ddbcdaa",
        "0ed51c229f87b66ffc8b261c84ed6719c763eb60453d19bba083a0479cfe380e",
        "99f0feae23be2710a9c7644da21e9de07f31b424cb7470f2dcdfba7b019288d6",
    ),
    "quantified.ana": (
        "73fee86f05746b547754951e2c9a696aa3ee71d282af958e1b9938f0ad97bda1",
        "b51f9a47205bb72bdc4556731b3d069b32dc6c1bd9bc59a5970d7b36b0c3161c",
        "8c4c30923608300e06bad54b0ca75d9a6c0f9a688a669a6048aeef0626587d04",
        "4ed08b997adfa20538fc8c4b20c03bbef2cc47eeb8138e5124c4bce9743538c2",
        "45b9a8acb860fedd297d105b0336ece9fd788aba279f2d9de3e8f5425ef19b84",
        "c19bafb8096ffe84764e0373d20f07fc1c6631cb7932a82bb7a2b26b392f4527",
    ),
    "smoke.ana": (
        "3aaf599551721d4ce2b92d1325dbfbcc3250d7d15d7759cd62330a14698a2a7b",
        "db42c83e9d36136d2df69ef41025b3c72d6b41b11f6830eedf7e6965eb527f1c",
        "a5d00df7532804cbb3c21e3e5da392b44d6ecc5278bd19ebd730b8caa6b4424f",
        "356b1fb148d0ec83b1f9d310eaf633ed489acfc048cc60bcd0745ab56b0d4f8c",
        "83086ae9b9635a0734941436975923db8658b25b1145a700ae73f9d377b8a0c9",
        "43b41a856a65e7ccb1a6e6afb220363c7b1685f164a11635cf183223c1ff888f",
    ),
    "unknowns.ana": (
        "03559e66e24ce4d84ac510de21edf9b45c7fac5392ba6975beda22a70780bce9",
        "747df0e0785626e36cc541d97ace886bb17ebc4cfa213efe35240bf34348204b",
        "85264ce42b041eb0c37050283a84c2e2faca229db2a371efdaa5515550870af0",
        "2ee69612d667d7cc8a50bbe64350afb1178702cf7d6d89b808db1305e2588fcb",
        "90ddef5ef7f0df98f1e0314f8928700370fded554974e069ce83395034338d2d",
        "bed51abc051fef01c263d0abc81efe0b9b026f007a8fb0d148776db447600039",
    ),
    "untranslatable.ana": (
        "993ea1bd01fcad797290bcc312c2d65b2ef54c75a27e853a964b9123b3de4fb3",
        "2d3f20d5017566750f48c3e91283c502fa36db091941fd0d80ba34e559f37cd7",
        "342f18d7f49e6e7c673c253d25fc21b55db0d481c4cc393ed80b25b3f20f75c2",
        "091e5bd3043d88fba5e4b792f1d231de29681fd65bb461e811265fb7012c132a",
        "53cbbaa5d829f3a26a2a291e0ee29163f5dea8023fbb86c91a55dc1f06e39b86",
        "c8766b5363bc1c986b95571c0c8c3ffbc5cd1da8bedaa2a6dccf99c52481b0f3",
    ),
    "weights.ana": (
        "d99e30bc7333e0d78c2bd136923640bcbc0d767da82cfe0acb9f7598567808cb",
        "a085458ad228c59d27617731bff3b32ab2b5b00e96c97bf535df6bd744996a38",
        "d8fa2793feab5c9ff5f8c035bc96a51e023da57e54a95ef4e57e6f18acfd2f35",
        "989c783e2fc0a9861987dcdb8bc44f88bd35ff3bdf9cea9180a1d7851412fd2a",
        "b233455e6215cde4d056047c34668d99b5809c50b3ffc60f8789185c75fa807e",
        "1c186d0bad7f80be7c12e7014461c071cfa79e0029d06dc88ab727f4c4dd53fd",
    ),
}


def test_every_bundled_session_is_pinned():
    assert sorted(p.name for p in SESSIONS_DIR.glob("*.ana")) == sorted(GOLDEN)


@pytest.mark.parametrize("session", sorted(GOLDEN))
@pytest.mark.parametrize("command", COMMANDS)
def test_json_output_matches_golden_digest(session, command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--json", command, str(SESSIONS_DIR / session)])
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == GOLDEN[session][COMMANDS.index(command)]


REPCHECK_GOLDEN = {
    # (mode, n, class): (sha256 of the --json output, exit code)
    ("soundness", 1, "all"): (
        "a6c4e4da6e8cbb31f39983aeb3549cb1fc983e3f5256f841431d9f7f32526436",
        0,
    ),
    ("soundness", 1, "smooth"): (
        "fcba3c07bfed72eb20aca5fa5141e9ed02c62e5d18558d89883c80bacf621ec7",
        0,
    ),
    ("soundness", 1, "ranked"): (
        "c671d23824390235af6a7531df92b494dde8190a17a89307ba12da84c8671061",
        0,
    ),
    ("soundness", 2, "all"): (
        "80e212baaa8fbd3885a148aec7a289a6b1f422fb25a3fd3f45201d6e6411d8cd",
        0,
    ),
    ("soundness", 2, "smooth"): (
        "4bc5fd446afae68e59067397dc722b19e409604076861a1d6362e4e4d57d2a53",
        0,
    ),
    ("soundness", 2, "ranked"): (
        "c80a9a0fa2fe0686ad2d1901cd699b2ed42174411f490cf43a927e82e7787c93",
        0,
    ),
    ("soundness", 3, "all"): (
        "40c76df0fce9570687e80fd42090ee8cab3268e878a967370edeecc0a77a2e03",
        0,
    ),
    ("soundness", 3, "smooth"): (
        "9eb0eeccee83c07b6e7511d1f3eef10ec98d44961d5985c69018465738f9e365",
        0,
    ),
    ("soundness", 3, "ranked"): (
        "c4950c6123eaa021cd8d322bf33a0bd9ccd0d1f40ff9c215c6732426fe2fdcc2",
        0,
    ),
    ("soundness", 4, "all"): (
        "2e5e0c1e1e6840ac319a90fc20742869d985197a00b47538912630c864166a57",
        0,
    ),
    ("soundness", 4, "smooth"): (
        "59c79645915710a5fe31b3516f8abdcc7fdcab21de58ab4ec8586e5da822a4d4",
        0,
    ),
    ("soundness", 4, "ranked"): (
        "26e8109320846d1bff4d7b30caea56eaff3f3067c62937c54b12f591d073cdf4",
        0,
    ),
    ("completeness", 1, "all"): (
        "41706b95a085605d02aa2025e50759f8ab0722788b42d07e7b48219c9e0cf8d7",
        1,
    ),
    ("completeness", 1, "smooth"): (
        "4e9b18e2e214d7f872d0b13c299d0b5741163a9b4f0dee06b4f2e764c26ef614",
        1,
    ),
    ("completeness", 1, "ranked"): (
        "90b010a53887f8b0b3396a3ead879eb9d4691152a8474b6ee38acc74d960853c",
        1,
    ),
    ("completeness", 2, "all"): (
        "3d0465e897a8eb57757fce7824a4bc1959f387f892364208b550ba1282539489",
        1,
    ),
    ("completeness", 2, "smooth"): (
        "00e79b9e8a3d638b85ab119ac80e07c8161808b44dab0560eba3bb558e245c83",
        1,
    ),
    ("completeness", 2, "ranked"): (
        "e18cd5410f3fc1d4643964fef5b95f6acea85f06e474199b81ee97497577da1b",
        1,
    ),
    ("completeness", 3, "all"): (
        "50b65db9b4bdbfc646411ae2d6a76a4371d2fb215795c58273384d313ebfcb80",
        1,
    ),
    ("completeness", 3, "smooth"): (
        "88a253deee6a7dad23a51a5a27b8f8394e131c7d61975293a12d0ec30dd6567e",
        1,
    ),
    ("completeness", 3, "ranked"): (
        "09e8d23d16bd7fc33515e67d80ea9db2561cf06db492a4cbd99de1eda5eb1ef1",
        1,
    ),
}


@pytest.mark.parametrize("mode, n, cls", sorted(REPCHECK_GOLDEN))
def test_repcheck_json_output_matches_golden_digest(mode, n, cls):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(
            ["--json", "repcheck", "--n", str(n), "--class", cls, "--mode", mode]
        )
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert (digest, code) == REPCHECK_GOLDEN[(mode, n, cls)]
