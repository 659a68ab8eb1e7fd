"""Pinned digests of generated traces.

Every workload's trace is deterministic in ``(name, length, seed)`` and
keyed in the on-disk trace store by ``GENERATOR_VERSION``.  These pins
make that a standing check: a change to the kernels, profiles,
scheduler or packing that moves any trace's columns or initial memory
fails here, and must either be undone or bump ``GENERATOR_VERSION``
(so trace-store entries stop matching) and re-pin.

A digest is the SHA-256 of the columns' ``to_buffers()`` metadata
(JSON, sorted keys) and buffers, then the packed initial memory.
"""

import hashlib
import json

import pytest

from repro.harness.presets import SMOKE
from repro.workloads.generator import GENERATOR_VERSION, generate_trace
from repro.workloads.profiles import ALL_WORKLOADS


def trace_digest(trace) -> str:
    meta, buffers = trace.columns.to_buffers()
    digest = hashlib.sha256(json.dumps(meta, sort_keys=True).encode())
    for buffer in buffers:
        digest.update(buffer)
    for buffer in trace.initial_memory.to_packed():
        digest.update(buffer)
    return digest.hexdigest()


#: ``(name, 2000, seed 0)`` for every workload plus Listing 1.
SHORT_DIGESTS = {
    "a2time": "7c1a2eb97beedf3c549c2165d2b1916a42c80b6b75890d03d245dabd6833d3e3",
    "aifirf": "978aeaeb396834891490cc73690beaee5730ae2d18cff4f1a3c0edcd4889f909",
    "apsi": "01131397194ee2b82531b620d5f8c74153e8b9af33867c2d13b5c4a4fe730ab9",
    "astar": "2e9a2f3d781034a8e4d0967b53a757402b9a26fc22cacfe0f16e0391eb3a8636",
    "avmshell": "b395637fdeb5ff4d05eafd818a0c3e70946c88d2bd86cd371716645bfa5c7fed",
    "basefp": "ff3a6fb78dcdf0f6cb43601c714f92eed364a38af80de7779bca1e5b2872900a",
    "bezier": "86f0d9dd104267613f41a06c3dc6c82cfce7bf3545042b3ff93a9c68e7090650",
    "browsermark": "85a69f873ae09e39afda82da1b8028da56a53b67796867e5d8d144dd753eac70",
    "bzip2k": "c281d86b02c85e9d55306d6fed6cccd7d5b9c179c65b94ac0a9dc69e63d34c45",
    "bzip2k6": "87948aad9e780a50c07fcd36f3e4d3fb95e7084b9253100ca43156f7283e0b13",
    "calculix": "4e08c6452b052da2ece4f707f0b382cb235d173e9e73527d1695471b0fafb1c9",
    "canrdr": "b7cddddce45f0825f79d9bed7d47e8c6cfaadb0a6578ee8a798bb51b07123815",
    "cjpeg": "5ab3b484ae55a415946254a0d04cea2ab1cc4f1fef02c8a8e15a8c791959c782",
    "codeload": "caaaf72e35986b4f79c8a91a54a994eeee3c411d625d142819cad78e959be2a7",
    "coremark": "7013ae646edfa4f19c695f5eae79018a7c0ce1855ffc95abf0d87cf35118c902",
    "crafty": "23cd09a12eb15bdaf14db80051961836e761649500c5ac5272f48635654a328e",
    "dealII": "451a3bd5a4652014eb562bd26986f6dccf0fa6f03fa8179cac53d6fab28c8cbd",
    "dither": "baa7539da548e71436474bd3d03990700ca030e9fd282ba6acc0ad1c875ddf8c",
    "djpeg": "5c7bef8ddcbd9de10ac389af77cd621b21ad8e33fd5d8fc1108d290f0a6b99b2",
    "dromaeo": "30c655ab06c145f84d116490a861d9f92481e9c9c0bebb958e488f948ceb5211",
    "earleyboyer": "2074c168cbc17c71e986d959b2e4a1d7c3fff51e10c5bb775019452ac0a270b6",
    "eon": "42814096811ccc44f93c73f18565ebb29f272e73428b71a350c01f23610d8518",
    "equake": "920bbc07970dee54df353dab37b7db399c97f103ffd21235ca389706055f18a7",
    "facerec": "45f9cb6d8bb4ad81767a025d23754505367510a6819abe8a9330263d3a9f321f",
    "fbital": "671dd565ec8e50752727a90f36e4ca46f25ce1983190df054c7626217d7dfdb7",
    "filecycler": "bed557fd4405e524209e021b2307d2fcd5088091cc1826cf8cbb7f22b3b251f5",
    "fma3d": "7181741225a52f5274003614addd5570ab2650b666f82a2913dd2ac7ae678eea",
    "gamess": "842c694e3a687476f7432ee9e8763c3ba462bd059429a148548ae8717fc0b5aa",
    "gap": "c5953d7422e1b15dc3ad62e214a32c4de8770330d872c3b43c402f96e42e27ff",
    "gbemu": "74520487204df9ac4dd0585938bb0b0f84a7f2f02b0a5382ab3e5b90c194c3e2",
    "gcc2k": "38d3747d8042c88b08390be09c3dd1975f6631616c1e1336815b1e777b6213df",
    "gcc2k6": "ed58a1db694327b16537c934a4f860a9a44e48d7b81d224224b0db968feba765",
    "gobmk": "0acb5f63f0bcc16db3197695e87d27e8bdfa548800a29d929c9291888ff382c4",
    "gromacs": "bb91a9547332bb608eac253585fdba3a8fbc2a8dbeeaff183268aed629b9c41c",
    "gzip": "f24b20ee2c02600c746c97ae85a662aed5ffb5f9de1df76693a69d54a798e4fd",
    "h264ref": "9a78208fc1f7680b4f45095ae2ee89a927449dd7b4799a052ddc3a790ddc6368",
    "hmmer": "51ba44dc194ff6c86c6b5a894cbb39d6d1e7856a20395fc3bc466ca1dbd2ed7c",
    "huffde": "e11ede1f786a723666847d2f7ebb0fade9abb3c5c950d326a17c0184949ab7b3",
    "ibench": "f8bb4a48497420927519f421bbc478115b4425322eefc259d5fb4c3fd5229d1f",
    "iirflt": "e67c79143ff954a37c3e68f449bf3c2e720105be7e998a8d5e66e0e2d4526e1c",
    "leslie3d": "ed7b19a0fe395ca903a8642e57c27e78ee5903de165f2d7060c76a1e7722f39c",
    "linpack": "8a3557b89680ec1c35ca1cd9c73faf9d0f85e88b9d62fb94eaca35f92f92bc5a",
    "lucas": "38a38925b312be9da8d566236e43d011fd2eede5dd2364c7188799d529958746",
    "mandreel": "240a94faf125a9c68c3162c1644d84070da8ac1bc776bcee99625b2532145e40",
    "matrix": "ca14205a57e21a45ac2958f41969b766cd8822a406af6416251002496db5c7b0",
    "mcf": "b534882ac9469aca51af8266a160fcbd5fce95dfcbd6d9a3baf7d46a076426dd",
    "mesa": "5755b7467b73aa78c6e3e7e9076de9db8649cd47462e8566a9a8a7d8a1621fc4",
    "mp3player": "6f63020e914c1a27316cdb565bacc68a36a6182b7b04033ea2606fbe99644eab",
    "mp4dec": "60550fe4a456186170bd47fe8313364749f38e43e21bee3a8b53b50f4bffb2f1",
    "mp4enc": "cae211107f692f035475b9dd2c218e2b205c8995fa554c9586737e89f5051025",
    "mpeg2dec": "d1b52c739f92a7236f07806c8a00556dbf992afbdb5e9ec7612e9d640af14c41",
    "mpeg2enc": "61bec07a69a4cef859917ca6d2bf660db740afcc396ab28f950f38825489842c",
    "mplayer": "ffc5d3dac00da05e715d2597dcb5d2bd03c9154eba485acc7f78406841a62b7c",
    "namd": "0ced7fe14f2880735d2ff6344b0cb5f5649e3ff654facee26ef0bd508ef49222",
    "nat": "3469cf418c75fc8682b9ca577f53b71b6e76e5e49c400c3c9c055a86c21aeec1",
    "omnetpp": "361f691fa2fdf95fe461bc8237c5840a482cbc138538457a51afbd5212750f56",
    "parser": "6860094e086b4221f47677ce56f1b0941d399720803fb8bad52adcdfe5ae59d7",
    "pdfjs": "5e08482a6ca5dc013bb8e373264c1075fa9c40dd9e893f5eb2107c388c5cd643",
    "perlbench": "717f92847a26f843497980bbe99f75be00bb5c83b7ce1cf289eeeae199afdd2f",
    "perlbmk": "dc1d0cf82ef80f2e6f80c7b0256c089029cf148f135077f629abd320f3d3a171",
    "pktcheck": "34682767b212eb4e161aaeb06d382a2adce13e67bf0bc93088ed125542287bfd",
    "pntrch": "153084e5dccb948861f5eb418f737bfdb6e42ea6bc413d252d2a5bb312104126",
    "povray": "9f4ef1e81a64a06b299c0f40af1b7a5b721db90996ce03ddcb9d3eded66ac7e1",
    "regexp": "e8a073d8c072153273c149bfc633999165fa717dd74827aab3b8f2953f8d352a",
    "rotate": "17251b40efbf07370cc6ab769eda6e0b4b98e4c9699d8a8edbe9444883420a6c",
    "routelookup": "a2328eddf06dec579b4372be64a3dc7e7db4dcfb7266b0f6d9b7656d2625bb6f",
    "rspeed": "0de9355fa7a87f10015d19fc9668b62f61b11082181f9202dd5ee6a2ee98bd07",
    "scimark": "61458fa973021adc80d46da0f5b626d6cab6d5e4fe6950939d778f792b1a2e17",
    "sjeng": "6a20374ba418d3b3ff128a182469c537f1d97d9272fc3b126557c79dd5f3fc51",
    "soplex": "c345b526496eaa52f7628de50bd65be7b77132b0c41e0d22f6eb0da9d14f10a3",
    "sphinx3": "a8383f44fa1e4b4023c7e9dc3e4d1b4846c4246a3bea628071411be202bfddbb",
    "splay": "5643d64ac67bc0a137475af10a76d32ba0489104c5e632ceee0ca77c9491388b",
    "sunspider": "5b90dba74e2d93f16d8a38ed49b998b512ba225373a64111de9c5106ff5ca603",
    "tonto": "69cab8e52aae8c3b288c49d4847a3cfced7a12716f6065687dd9c68c064e888d",
    "twolf": "b599ab854b48da1c9688b485cea9d8cfeda30fecf86780c733d80202653f6b3b",
    "typescript": "f00eb5c676f1906ea32530dfb8c9dbb7bee760ed8bf393e5705b2403960ce425",
    "v8": "39cfb48a3b90f416b6fbaa0e29b2ee2315a578b0099a29b1512cfc41e2cd017f",
    "v8shell": "813bf6e7147c08407846a7b5cc9376d695529c097a677d796962ce5715791d3e",
    "vortex": "080c29a97f41fd7c1812e573ae506982d262a6ade1983212e2716817222b5713",
    "vpr": "b7d6f6fde7adda022b89a8ace9f1c67382c9989de603bdbc0995713247fec4fd",
    "wrf": "9ed8782b2f6ff0c8783ca12a35490a1446058a79cf2f1681401d256ef0edd5fb",
    "wupwise": "e3411e1a4447b7393b8e4ece702c35dc4c18ca19ec219b28b7ac7346dd7ecfd7",
    "xalancbmk": "b5743e3aaec67cc4b8a42f088a25d666a690d953a4ae29273210f4bcea0f102c",
    "zeusmp": "764b0465ba2de1445f5489f8bac9d555bcba8253886b0503e489bfb9910a2668",
    "zlib": "2291898705904e076f3656e20f01e5ce105c43011c139909843362840da4af1e",
    "listing1": "8b64163e5bd21401f3c46c8ae135e19c1d6936093c7617b6d89629c31b5bebd1",
}
#: ``(name, 20000, seed 11)`` for the smoke workloads.
SMOKE_DIGESTS = {
    "coremark": "dbc2faa7609074ef51415718efef9521191807a1d6ed5760d92dd60283669397",
    "mcf": "a611de3cae817f04c792b8633e053252a8c054a395e136fcfed3d8b841b6f117",
    "gcc2k": "142098d2086844fa5ddb48072279083489c3322d5334c31c5ad9fea88af06681",
    "sunspider": "11ec92602db6cba07334c2c7d3889816ce805fe21096d6b60be6978704e87c8c",
    "mpeg2dec": "4bb3e66c87012e0bed702b5cfefac66d34ddfc9f85ad62949803edbfa52cc5a0",
    "linpack": "4311cdd080678636bb6bf1e4b4e18d4739c2d3f40465d97e2bd0a6646c1ee4f2",
    "xalancbmk": "790f854c4f8b0620f885411317d2c45b052a8dbed8013c715beee34ecff1c246",
    "splay": "e754fa79b39669d61830762459f96b9432831b5210673e9fa49264d43ffba024",
    "equake": "501f184d25bf245febd4a21f235b72c964881deb0462b2a7800f6af8321037d4",
    "v8": "a3f2a2e4ce7283276b6a0382d6e5cfba99171da549056edf9d037884834c5166",
}


def test_pins_are_for_generator_version_1():
    assert GENERATOR_VERSION == 1


def test_pins_cover_every_workload():
    assert set(SHORT_DIGESTS) == {*ALL_WORKLOADS, "listing1"}
    assert tuple(SMOKE_DIGESTS) == SMOKE.workloads


@pytest.mark.parametrize("name", sorted(SHORT_DIGESTS))
def test_short_trace_digest(name):
    assert trace_digest(generate_trace(name, 2000, 0)) == SHORT_DIGESTS[name]


@pytest.mark.parametrize("name", SMOKE.workloads)
def test_smoke_trace_digest(name):
    assert trace_digest(
        generate_trace(name, 20_000, 11)
    ) == SMOKE_DIGESTS[name]
