"""Every subcommand's output, pinned byte for byte.

Each case runs `cli.main` in-process and compares the exit code and the
sha256 of stdout, in both output formats, with the values in EXPECTED.  A
change that alters any printed byte of these 86 invocations fails here, and
so does one that alters any byte of the 24 certificates `--save` writes.
"""

import hashlib
import json

import pytest

from milnork.cli import main

SPECS = {
    "t3": "variables: t\nrelations: t^3\n",
    "xy": "variables: x, y\nrelations: x^2, x*y, y^2\n",
    "nonmono": "variables: x, y, z\nrelations: x^2 + y^2 + z^2, x*y - z^2, y*z, x^3\n",
    "readme": "variables: t, sigma\nrelations: t^2, sigma^3, t*sigma\nsigma: sigma\n",
    "sigma4": "variables: sigma\nrelations: sigma^4\nsigma: sigma\n",
}

TOWER = "dims: 1, 2, 2, 2\nmap 0: 1, 0\nmap 1: 1, 0; 0, 1\nmap 2: 1, 0; 0, 0\n"

# the first variable of each algebra, for the certificate coefficients
FIRST = {"t3": "t", "xy": "x", "nonmono": "x"}


def _algebra_cases():
    for name, v in FIRST.items():
        yield name, ("algebra-info",)
        yield name, ("omega", "--p", "1")
        yield name, ("omega", "--p", "2")
        yield name, ("decomposition", "--n", "2", "--p", "2")
        yield name, ("phi", "--n", "2", "--p", "2")
        yield name, ("theorem2", "--n", "2", "--p", "3")
        yield name, ("tangent-span", "--p", "2")
        yield name, ("certify-eq7", "--c", f"1+{v}", "--n", "2")
        yield name, ("certify-eq8", "--c", f"1/2-{v}", "--n", "2")
    yield "readme", ("tau", "--n", "2")
    yield "sigma4", ("tau", "--n", "2")
    for name in FIRST:
        yield name, ("phi", "--n", "3", "--p", "2")
        yield name, ("theorem2", "--n", "3", "--p", "2")
    for name in ("readme", "sigma4"):
        yield name, ("tau", "--n", "1")
        yield name, ("tau", "--n", "3")
    for edit in EDITS:
        yield "t3-eq8", ("certify-eq8", "--load", edit)


def _projection_order_0(doc):
    next(s for s in doc["steps"] if s["rule"] == "projection")["payload"]["order"] = 0


def _identity_exponent(doc):
    next(s for s in doc["steps"] if s["rule"] == "entry_identity")["payload"]["atoms"][0][1] += 1


# edits of the saved Q[t]/t^3 eq8 certificate (c = 1+t, n = 2) read by --load
EDITS = {"unedited": lambda doc: None, "projection-order-0": _projection_order_0,
         "identity-exponent": _identity_exponent}


CASES = [(spec, argv, fmt) for spec, argv in _algebra_cases() for fmt in ("text", "record")]
CASES += [("tower", ("tower",), fmt) for fmt in ("text", "record")]


def case_id(spec, argv, fmt):
    return " ".join((spec,) + argv + (fmt,))


def run_case(tmp_path, capsys, spec, argv, fmt):
    """Exit code and stdout sha256 of one invocation."""
    if spec == "tower":
        path = tmp_path / "grid.tower"
        path.write_text(TOWER)
        full = ["tower", "--tower", str(path)]
    elif spec == "t3-eq8":
        (tmp_path / "t3.spec").write_text(SPECS["t3"])
        path = tmp_path / "t3eq8.json"
        assert main(["certify-eq8", "--algebra", str(tmp_path / "t3.spec"), "--c", "1+t",
                     "--n", "2", "--save", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        EDITS[argv[2]](doc)
        path.write_text(json.dumps(doc))
        full = [argv[0], "--load", str(path)]
    else:
        path = tmp_path / f"{spec}.spec"
        path.write_text(SPECS[spec])
        full = [argv[0], "--algebra", str(path), *argv[1:]]
    code = main(full + ["--format", fmt])
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


EXPECTED = {
    "t3 algebra-info text": (0, "22587a38013ca0bfb2f72ac7c2cbaecca4df0485ea798164f98f5f065c193943"),
    "t3 algebra-info record": (0, "5036787673a9d9901c96b9af5e22eeeca93cc907a0b72508b34aab5352dfee04"),
    "t3 omega --p 1 text": (0, "fbebdc8497ea6ceac6ef4977495fc38b09c5c77ed647c435834bc033789e49bb"),
    "t3 omega --p 1 record": (0, "cbea3fc3db5d891aa0aaa60eab299a249f4ba0681d2f79628583cc7d967f2a92"),
    "t3 omega --p 2 text": (0, "d0fa4c5757c4e115714b9debb16bd5c74e791c4427561cd0351795a12aaafad2"),
    "t3 omega --p 2 record": (0, "bb461be273f6e62b9da8bc3493e084ae0ad46ba196355bd77fd18dc0282bed49"),
    "t3 decomposition --n 2 --p 2 text": (0, "0ba5cffbca342977e27d0b37edf69b626ff5cfb8194d892c48dfd13ce49e8b8f"),
    "t3 decomposition --n 2 --p 2 record": (0, "365a3b7fb8c2897c673475b1633b3a2168385c57854d0f1aec28dc946be89fef"),
    "t3 phi --n 2 --p 2 text": (0, "365d665556e08eec50a2e61a78342f72010da3746ab73840b4c886d62c1dbb4a"),
    "t3 phi --n 2 --p 2 record": (0, "bb606c19dc82ca36d348fc19cf2a11fb01c9d2007ed38c9d05d10b416e4bb950"),
    "t3 theorem2 --n 2 --p 3 text": (0, "5fcd5dfa473e71f0868e70a53dd801787e57c13c8cbe3ca23823a12476e8868f"),
    "t3 theorem2 --n 2 --p 3 record": (0, "3057cd9ea7f83d352809e3cc642ecf9e11a5abe776075779d5a31a1993e1c50e"),
    "t3 tangent-span --p 2 text": (0, "1f1bfb6e5ee2bb1360f11a7faae0d942733bc124b4ec9506d563c9577f7bdb88"),
    "t3 tangent-span --p 2 record": (0, "edff6e90a87df30612853574f9e7a23818425ae2bc9e8a4d07e2e28e94d09f1d"),
    "t3 certify-eq7 --c 1+t --n 2 text": (0, "5d342ccd69ea016c6287bc1fd323a647a3aad4856b377f00b7e7a960fe4bd7e8"),
    "t3 certify-eq7 --c 1+t --n 2 record": (0, "b511d6105f377bad2031a0a3a362f78e232484fdfe1353ab6d79dec755521782"),
    "t3 certify-eq8 --c 1/2-t --n 2 text": (0, "1d7ea3a315ff8650f6e82eeb47eca8f3baf3133d40246fb29da9d79b939c84c7"),
    "t3 certify-eq8 --c 1/2-t --n 2 record": (0, "0529bf42e9c2f5169ee828352907368931db7189945224f6a5803f6bcecefba9"),
    "xy algebra-info text": (0, "da6f3cd602c2ee35b3396fdbb2c72782dd60bb2119a8e6c686837ca851cf736f"),
    "xy algebra-info record": (0, "f5f2a7a72820ae42d15fdd41d5d046b0e3304ffb569186bedfbe73e0ce7b03d2"),
    "xy omega --p 1 text": (0, "d5f9126c92f805c8c0db8cb8bbb8fbf6e4cb503695ae3055f2c88af69c7ff7b9"),
    "xy omega --p 1 record": (0, "0d2b631f3fa631c6a72c5672bbcefdc41e122bebadd779ff578aefbff2d37979"),
    "xy omega --p 2 text": (0, "0df4e09bc86aad6ffe72261840480b5bca82c7d3dd33255d3654b1f9b87287fa"),
    "xy omega --p 2 record": (0, "8bd1bf912477b7c1cb367e0a778b85126e2b17e396c967184fe38b06d51efeac"),
    "xy decomposition --n 2 --p 2 text": (0, "ba6dd1941228ae06e673489bbeacbffadc02d6b306e6399ab7c8a1fe8029db4d"),
    "xy decomposition --n 2 --p 2 record": (0, "dab743308824d091f0a9e1c8e23b8cdb2d4213944f8c7c24d98d4439d4138176"),
    "xy phi --n 2 --p 2 text": (0, "aa969f80b507f03c7b91e7ae8644cc6e3dd7c5544c45fec95557fdebbe763908"),
    "xy phi --n 2 --p 2 record": (0, "98e2f4237a36ff1b527975ef0d7509ca258534fad3643975b33b2d1933a75bd5"),
    "xy theorem2 --n 2 --p 3 text": (0, "89aa346f0bdfb7b3af203bafc59e293463db8a0a8deb075f44a0a6c2fcadb587"),
    "xy theorem2 --n 2 --p 3 record": (0, "98b8c7f8ce544841b6f180177f9c08eb89b57014251adf35056da9dc0c0e4378"),
    "xy tangent-span --p 2 text": (0, "264ce0abf7dee24f3cb4e90bb40de2455403c1b1f27e7350f9d9cb4f2d18515a"),
    "xy tangent-span --p 2 record": (0, "5903de9b0e318976aef72f9850673f9f925cb29e3d7f1bf7850f533628fb25c1"),
    "xy certify-eq7 --c 1+x --n 2 text": (0, "bf2376e19921f9d0a157241b25eec20d51b985dae60a06ff894f71c29e391e67"),
    "xy certify-eq7 --c 1+x --n 2 record": (0, "2143741ebd9dac2fb160b15b0a72d6ab4b5135cd6ed73a8f6ea889a268fb3d9d"),
    "xy certify-eq8 --c 1/2-x --n 2 text": (0, "9c4e2596c251d63b7953cb39b69c2314045246c94aed0bf7e15f84d571a71409"),
    "xy certify-eq8 --c 1/2-x --n 2 record": (0, "5cafb7e4c7144f36df67a9972e31e4ac97e16efb74713193bb0a671c4becb865"),
    "nonmono algebra-info text": (0, "3aacfaec99a9be8eb6ad681da1001c87097c666a7b79016fffb65c478da462fd"),
    "nonmono algebra-info record": (0, "bce3c089bfe3f77bfe0436fdf54e7d9abd50101f38b2e858f866d8357f1a4513"),
    "nonmono omega --p 1 text": (0, "8899510dee17c96451786b825fd9bcee7270c15ce4d01d6c61b066772fe6456b"),
    "nonmono omega --p 1 record": (0, "cec1d208889f09c54a3075c9287fb562aae21fa479ff59f4a68523c7529f5619"),
    "nonmono omega --p 2 text": (0, "bce4b48396bfc93282d8137930d0727d1a29f7d3107471fe4c0c56fa50d07c1b"),
    "nonmono omega --p 2 record": (0, "f70a593ef190c4d194a5a7681e6149780da888b7b882af6302fd70aca02670b7"),
    "nonmono decomposition --n 2 --p 2 text": (0, "230b1690ca00e1e60ffd854e7b5c44b3f3df6203a72334c901fc815687b4229e"),
    "nonmono decomposition --n 2 --p 2 record": (0, "d6f239dfb4f016c00a0ed48d0dcbc5e3b8d87ccf257095ba2023d0b0ada03450"),
    "nonmono phi --n 2 --p 2 text": (0, "c91a4af50e42fecdbc796017e7af1cafa7fca732d986ffa2371df0d09af15ea3"),
    "nonmono phi --n 2 --p 2 record": (0, "99ec16445752f669bf9a8e1aef984ebbaaedc0c309789138939134698236b01c"),
    "nonmono theorem2 --n 2 --p 3 text": (0, "f62f0224163e1adcf35a0448888bc4f7847d190a00c30264f7afa114674a63a8"),
    "nonmono theorem2 --n 2 --p 3 record": (0, "5575c571140fb251441a9c5dc9a3d828493f63ce48b7e3b53b1d7522e63b974f"),
    "nonmono tangent-span --p 2 text": (0, "cc9b6dfc5aa765693be32d389376252aa285cfa43c031a0b99f62ad386445efc"),
    "nonmono tangent-span --p 2 record": (0, "6bd671de6a0d9524a6e02ca439d22d0d3c842f0dd15d48af0caa99787e419cce"),
    "nonmono certify-eq7 --c 1+x --n 2 text": (0, "bf2376e19921f9d0a157241b25eec20d51b985dae60a06ff894f71c29e391e67"),
    "nonmono certify-eq7 --c 1+x --n 2 record": (0, "2143741ebd9dac2fb160b15b0a72d6ab4b5135cd6ed73a8f6ea889a268fb3d9d"),
    "nonmono certify-eq8 --c 1/2-x --n 2 text": (0, "9c4e2596c251d63b7953cb39b69c2314045246c94aed0bf7e15f84d571a71409"),
    "nonmono certify-eq8 --c 1/2-x --n 2 record": (0, "5cafb7e4c7144f36df67a9972e31e4ac97e16efb74713193bb0a671c4becb865"),
    "readme tau --n 2 text": (0, "d128b95ecfb94e92da03ca862749c3c79aabe1c5ded18a4dfaf4241cd274a8fe"),
    "readme tau --n 2 record": (0, "7610d3888067c2674214905c701a217470d409291e5c94fda1053dcecf8f0f26"),
    "sigma4 tau --n 2 text": (0, "bd4eae64a53ad63797cc9d847a411204373655cc9c9cdf4ab4f1e6d24a078f1c"),
    "sigma4 tau --n 2 record": (0, "ed21d89ca3c74345188d724b51ccdd1dd4dc75957a69ccf2506522bbca6402e2"),
    "tower tower text": (0, "8769fc53492ba2142fa77b60bb14d2776a9d9f91ac3171f61f10f8f76cb8a724"),
    "tower tower record": (0, "b022f76d8af138fe90eaf9a179542133594d44e3ee348a12c2362f3318a04a6a"),
    "t3 phi --n 3 --p 2 text": (0, "89911e1545090f153f957f2ef62d3faa2b12b50d0c5d207fdb4bea7384b3ef74"),
    "t3 phi --n 3 --p 2 record": (0, "f989511a80314a3914231d991d260812826ce17276c706156ba24d8aca3ffde2"),
    "t3 theorem2 --n 3 --p 2 text": (0, "e124bc85de3f66fe7e3e2e775f63c7e373ae57c154cfa650cd44381c114c2106"),
    "t3 theorem2 --n 3 --p 2 record": (0, "1f255a04b66717cf9ffcb9723f707ab2b3cd5c2d9dd4e78863af35af46062a9b"),
    "xy phi --n 3 --p 2 text": (0, "64944d499c2b4ed9a23d2d79f6047817978f3caaf4d1069312c63563c2ef11ae"),
    "xy phi --n 3 --p 2 record": (0, "f4a0f895ce7188ac6775f5ac434fa6bf3cdefeb245187581b7c28808b2513461"),
    "xy theorem2 --n 3 --p 2 text": (0, "2f4bbb40a4248a7869bfba84d8b2109ef99f876ac13a5fe8812111203f64cc73"),
    "xy theorem2 --n 3 --p 2 record": (0, "0f40a50cb06a9f9f201858c4acf1c69b3d962c917603308393c819274b66f71a"),
    "nonmono phi --n 3 --p 2 text": (0, "3751127d3df22e988ccc4ea9b7914585a77013357a6a3694021c2fb5b8976d4f"),
    "nonmono phi --n 3 --p 2 record": (0, "a7c2eda6201b24d02f6708b60822b93e976ffc04bff30cdf0d8579fd3e6f874c"),
    "nonmono theorem2 --n 3 --p 2 text": (0, "53f582acdaa039be33d6f69ceffeb17964f5953aa40bc4d5f85a6dab778bacc1"),
    "nonmono theorem2 --n 3 --p 2 record": (0, "db33a433a43c69c997e4657b204692a659f5c98de06b61f5c85d57e80ad38300"),
    "readme tau --n 1 text": (0, "8825360b5a24917626ed9a4522003a96f505d29102e72178b9d96aa482f2634b"),
    "readme tau --n 1 record": (0, "e31578d2cd9b47492a46ce1927b78db919236f0022d14afdaa0846290f4a850f"),
    "readme tau --n 3 text": (0, "79238cae8a8c4f1b1e01a0b35f1fa52d83f221aab92a3edfd12a4f60d5e53e94"),
    "readme tau --n 3 record": (0, "6df6f74e40781111ca1588d4624acb1bce00cbcffa964928d72e6ce5823fd01a"),
    "sigma4 tau --n 1 text": (0, "2b15263b749286758607749c733c487cdf084bb6c26d7fc957e67eaeb4a0bed0"),
    "sigma4 tau --n 1 record": (0, "db5dc33439dc83ac8a9e55d7ac607008b0abe5d3152159c706a686851b9f50ea"),
    "sigma4 tau --n 3 text": (0, "9b05968972eaa2d41e8c3896e4bde70ad5bbf06a6c40a2960256bac79a7fb4b6"),
    "sigma4 tau --n 3 record": (0, "4943440ccbe14caeb4085f7a56b0ff59702b685c641e15882e85bf67fd6ba005"),
    "t3-eq8 certify-eq8 --load unedited text": (0, "7c4ede5eceb5230ac69bc61dac4b373b0d65387c45c35f6976d42f45f066ff34"),
    "t3-eq8 certify-eq8 --load unedited record": (0, "1f7b44fe2392b959c5a878729f87d951d9c7af13b38028106ade1050d4518a35"),
    "t3-eq8 certify-eq8 --load projection-order-0 text": (1, "706c0d198388ddf7e938d57e696a0fa8aafbfdf953070f6f4503d9892d5c4b29"),
    "t3-eq8 certify-eq8 --load projection-order-0 record": (1, "95ad58e21587b4e6c52ba64f0077b618f167267b82be5018fbe954ec55068ce6"),
    "t3-eq8 certify-eq8 --load identity-exponent text": (1, "4d39589c2d1a8e1601b3491d75216f5b755a19be836cea2a972edb5fcd280957"),
    "t3-eq8 certify-eq8 --load identity-exponent record": (1, "7786f80e7f590806617778acb95977454ba255c54173783d65ff6a60b06a365c"),
}


@pytest.mark.parametrize("spec, argv, fmt", CASES, ids=[case_id(*c) for c in CASES])
def test_output_pinned(tmp_path, capsys, spec, argv, fmt):
    assert run_case(tmp_path, capsys, spec, argv, fmt) == EXPECTED[case_id(spec, argv, fmt)]


# Saved certificates, pinned byte for byte: stdout shows only the path, and a
# change of term order (AlgebraElement.key) would otherwise alter the JSON
# that --save writes, and so break certificates saved by an earlier version.
SAVE_SPECS = {
    "t3": SPECS["t3"],
    "m4": "variables: x, y\nrelations: x^4, x^3*y, x^2*y^2, x*y^3, y^4\n",
    "nonmono": SPECS["nonmono"],
}
SAVE_CASES = [(name, command, c.format(v="t" if name == "t3" else "x"), n)
              for name in SAVE_SPECS for command in ("certify-eq7", "certify-eq8")
              for n in (1, 2) for c in ("1+{v}", "1/2-{v}")]

SAVED = {
"t3 certify-eq7 --c 1+t --n 1": "e453fc1c9013c1b1a82726111a02c0f8c149e375c078bafdef0b264743df2dd5",
    "t3 certify-eq7 --c 1/2-t --n 1": "e8fcdb51a1c5cefb02923969aab5c588322110b6b030fab4127b5c4d845b796d",
    "t3 certify-eq7 --c 1+t --n 2": "8a166d74ee492362e16e10222454a67bd4635ae4ee3e99c3ba2b314a2db8c2db",
    "t3 certify-eq7 --c 1/2-t --n 2": "5ce7ea6f4ce35f3e48c00a59d33c753baec2485c4987010a3f59fddf538db38a",
    "t3 certify-eq8 --c 1+t --n 1": "29b816eceab63302a9d4b8d33f0eb4e18a102d91905667c8e27e40ebde50467d",
    "t3 certify-eq8 --c 1/2-t --n 1": "5ca76494fd88bbcaee35d2c14d2f4e85710056bf06d3fc47a043cf6ea04ef7d7",
    "t3 certify-eq8 --c 1+t --n 2": "61c220a62d69e1fff41479689abbc77867cb597d9f43d36877c8410341f9a181",
    "t3 certify-eq8 --c 1/2-t --n 2": "122b50d2ceb0d299aa10079db62b412ef3b253983972e236338f6bd33617b84b",
    "m4 certify-eq7 --c 1+x --n 1": "3dbe1cb5a96d0c1b35850bf242ada0884151527f886f5687bb163eb0a9d93821",
    "m4 certify-eq7 --c 1/2-x --n 1": "7014b3b8c249d9258d101f13a0cb530a4742d95f2357c9a330a721945a23de1b",
    "m4 certify-eq7 --c 1+x --n 2": "e95f29344b85cd84529c90ad1da34b9b82f00a1b4ceb42c03e1903aa15c2f596",
    "m4 certify-eq7 --c 1/2-x --n 2": "ac871f4fbf7390ca252d08bc86d0089be62b4595fb3583bf0707ed18c3edf997",
    "m4 certify-eq8 --c 1+x --n 1": "0c8930fedf6c255679d904a4c145a9d2e057550a1698e4a47224c610ddcf6e45",
    "m4 certify-eq8 --c 1/2-x --n 1": "ce2c5b6bb364555c871293720b15f6488f19bd9f278eb114516921fd47d6c954",
    "m4 certify-eq8 --c 1+x --n 2": "037a9926aca5dbfa906715f97852ef56b29c863246b6c6f59de5bb031dc4b947",
    "m4 certify-eq8 --c 1/2-x --n 2": "3fa2010d8353c02be69f576597e4de5069b6bbf2cf59d03dd894559f0d90dec2",
    "nonmono certify-eq7 --c 1+x --n 1": "ae260e26488a9b564b392039f43f368475819dfcc8c89e924a0c9bed8dc0cc84",
    "nonmono certify-eq7 --c 1/2-x --n 1": "80463208547f25dedbc7e1bed973ca6f66b2ae85475a46a25ff57290c00c3bdb",
    "nonmono certify-eq7 --c 1+x --n 2": "2b9a5d63aa6e7da036fa923e06110310a85866f9428cf4db3b57a11eb86af2f2",
    "nonmono certify-eq7 --c 1/2-x --n 2": "0495253f72f77e687a1f71f47fe6b18157ddd2ef65b6896742d2eef94aaf8c3c",
    "nonmono certify-eq8 --c 1+x --n 1": "14cf151479adcab1021f19ac7ec1ef81ed635e6d55c90d8f89c034345c96f54e",
    "nonmono certify-eq8 --c 1/2-x --n 1": "ef661cee0bd9e7057342cede75bae836f7e17e12762e1a6e21783c05de9e937b",
    "nonmono certify-eq8 --c 1+x --n 2": "b0c328f9e137d97280f0e76a07a430fcd32c8e5485025029910fe806037d050f",
    "nonmono certify-eq8 --c 1/2-x --n 2": "9320d351815181778883c0786b54f004fe0f6e77a9d201500da2bba3683e1502",
}


@pytest.mark.parametrize("name, command, c, n", SAVE_CASES,
                         ids=[f"{name} {command} --c {c} --n {n}" for name, command, c, n in SAVE_CASES])
def test_saved_certificate_pinned(tmp_path, capsys, name, command, c, n):
    spec, path = tmp_path / f"{name}.spec", tmp_path / "saved.json"
    spec.write_text(SAVE_SPECS[name])
    assert main([command, "--algebra", str(spec), "--c", c, "--n", str(n),
                 "--save", str(path)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == SAVED[f"{name} {command} --c {c} --n {n}"]
