"""The whole pipeline output of every named scenario, pinned to constants.

The scenario goldens pin only taxonomy counts, so a change that moves
one RNG draw, one history row or one restored stint without moving a
count passes them.  These digests cover every part a build produces:
the simulated ground truth, each registry's change-point history, the
restored per-registry views and merged timeline, the restoration
report and both lifetime datasets.  A rewrite of the simulation or the
restoration must leave every constant here unchanged (DESIGN.md §5).

Dicts are encoded as ``[key, value]`` pairs in iteration order, so the
digests pin order as well as content.  Sets are sorted, so nothing
depends on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Dict

import pytest

from repro.scenario import get_scenario, scenario_fingerprint
from repro.simulation.datasets import DatasetBundle, build_datasets
from repro.timeline.intervals import IntervalSet


def _canon(obj: Any) -> Any:
    """A JSON-encodable structure with one spelling per value."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [type(obj).__name__] + [
            _canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        ]
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, IntervalSet):
        return [[iv.start, iv.end] for iv in obj]
    if isinstance(obj, dict):
        return [[_canon(k), _canon(v)] for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_canon(v) for v in obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"no canonical encoding for {type(obj).__name__}")


def _sha(obj: Any) -> str:
    blob = json.dumps(_canon(obj), separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def pipeline_digests(bundle: DatasetBundle) -> Dict[str, str]:
    """One sha256 per output part of a built bundle."""
    world, restored = bundle.world, bundle.restored
    out = {
        "world.lives": _sha(world.lives),
        "world.transfers": _sha(world.transfers),
    }
    for name in sorted(world.registries):
        out[f"history.{name}"] = _sha(world.registries[name].history)
    out["restored.stints"] = _sha(restored.stints)
    for name in sorted(restored.views):
        view = restored.views[name]
        out[f"views.{name}.stints"] = _sha(view.stints)
        out[f"views.{name}.unavailable_days"] = _sha(view.unavailable_days)
    out["restoration_report"] = _sha(bundle.restoration_report.summary())
    out["admin_lives"] = _sha(bundle.admin_lives)
    out["op_lives"] = _sha(bundle.op_lives)
    out["injected_defects"] = _sha(bundle.injected_defects)
    return out


class TestPipelineOutputPinned:
    """Every scenario's full pipeline output, part by part."""

    #: scenario → part → sha256 of the part's canonical JSON.
    DIGESTS: Dict[str, Dict[str, str]] = {
        "regional-internet": {
            "world.lives":
                "89ac54bd9b7d83eb8daef64cc66495fe05007ab0a1eb0fcf6b20274b46893eae",
            "world.transfers":
                "55f07e92003c4aca0cbb5bbd1ca487fd9fc62896fe106f836a61fabfe784e763",
            "history.afrinic":
                "92ccac7c89984af92f9842bdf8e65a161fde8d3e9ed9a411e53246fb858bdd0e",
            "history.apnic":
                "a1fba2d591a9cc4a0f56c4b1cc57518541d7abe9b2e61514a356445b09668265",
            "history.arin":
                "da0de312a1baaecd6f73c2d05ff5a84db6c03f261da455f181b75903a6deec06",
            "history.lacnic":
                "53d37427b47e7d376c2d2d0e449d44c79a9cd91606a45af75bade1e42d9f0510",
            "history.ripencc":
                "d7895432e3e3dbade0a2e595122c13c80c457729c648706963c3faae9505badd",
            "restored.stints":
                "7773d159c319120a3b21b8fbc6c58d858b21ecb33281226adc2bf0a144cc1444",
            "views.afrinic.stints":
                "a834ea0e6f774d4c599bb0b1950a2329fe3e8493f80d4ce0e3523cabd94d4d0a",
            "views.afrinic.unavailable_days":
                "6cef2a44df9c1011e5e5f209108992e6560bd0b08b2477cc57dc3ea131b260ad",
            "views.apnic.stints":
                "5122618a53f3542bf7a7c322663f6d45edb2d8a0e0db69ba9ef5afe63c08cfd3",
            "views.apnic.unavailable_days":
                "c06da9b2a7cdd43d0de7b6df11ffd696a131d69279fea7c99134174d2bf51d97",
            "views.arin.stints":
                "a3e21e1cd80553dd03bc756310123eab3fd96896b7df98fe0f1e8e313a664ab1",
            "views.arin.unavailable_days":
                "e8d5684d000eb6414d1ddc55275f04d3e261304c3cf6b53302adc6361987cf78",
            "views.lacnic.stints":
                "7f9212c3e81527a0ff7a1897a7c90b4dee7c12561d8227079f38efff24c31e41",
            "views.lacnic.unavailable_days":
                "23e858ce34586d0b1d162a9ea0db8b3e85224bd789fe8fe49f76711eeb99acf4",
            "views.ripencc.stints":
                "44e23a93559c95e69e59bb0601a71855f8a9e6ecb75e06a9388211fb4161d3dc",
            "views.ripencc.unavailable_days":
                "1c194b574fb11f95d2b8077587c588174a953b2ccf8695956df31547d5270473",
            "restoration_report":
                "371fe6ba33ee4908b677bbdad32d9bde93536bc44ffe67ed5b7614f06103b470",
            "admin_lives":
                "a0fb4aea2191b54cd5f9d0664bc448ddf425faceca7fcda44ffc8ce610678d7f",
            "op_lives":
                "358b8d09e24cdc8c67b6d762cbeae5327865d293096dbabd2af7ed548867dbea",
            "injected_defects":
                "3f0a188f2ebfbd21458f37f959b98acaec868d9c5cff42503692dd4ff92e6a78",
        },
        "flat-ixp-heavy": {
            "world.lives":
                "c306ed6fef80d47be689d435c6f8d60dbc8057da4bdce6120a3f87db21b8e12a",
            "world.transfers":
                "733978d3845186278b77c1c5a9cd58553b15167da5994a9eb322c6f1b418563f",
            "history.afrinic":
                "86e24151f7f7b787297a74b8842264f4cefa008d58efd74203efe91f0f9a7216",
            "history.apnic":
                "7a0acd9473092210150b56725df4896853281e2c6dc4e08fe53ea7735898ed04",
            "history.arin":
                "4eafe0e7c9f2ec2713e1fe58cfd49ed9642dac9c25734bbc4202fb2f10262c39",
            "history.lacnic":
                "49fb938ae66a030d69f0374eaf32cf9957c4787b81ee262ee1a270333d06e554",
            "history.ripencc":
                "05e84256568c71e95cc5e870bedadd1391b26b84eac5aedb8e3b9e1c3e2b0622",
            "restored.stints":
                "d4db786e3ff187245a3bf6dd01dd8de93ecd0cc91ca90e833fe83a71e5badff3",
            "views.afrinic.stints":
                "5add7bfe007c95dc864c66784203911ae24cd7ded4a5658aeeb281a69654b121",
            "views.afrinic.unavailable_days":
                "26e9ffe76972c452450b0889349f72844604a965e8bb843db11ae9fac87bb122",
            "views.apnic.stints":
                "70f8defd67059df032a5e78bebb16f1cc4e87dedd4f37e4f9d5c528ddcbbfb16",
            "views.apnic.unavailable_days":
                "47f3484a9b1f860e5419ea32798a8b04c85dadaf7da3c63a0a10255a9e25057c",
            "views.arin.stints":
                "8d9e2d5a31d87856ff62936b1ef61452cec25ca1d1e3efc1e26fd8e20ecdf4aa",
            "views.arin.unavailable_days":
                "95897d7ec5124baa5fe836496bfcd5104734dbf0bbd63d3ec458e08cb689838b",
            "views.lacnic.stints":
                "f049e30832116d829cc617ae7b8358a634ec7967cbc461c3967c08d9fa14ff82",
            "views.lacnic.unavailable_days":
                "2b985154d907aa6562565bae7e93072ccc613663f6ea629a414d67997ce69b0b",
            "views.ripencc.stints":
                "7cd0fc72b29bc092b4bfe3a807a7e5f759c2a2a02f298b62dc9aa08ffd731d90",
            "views.ripencc.unavailable_days":
                "4276e6d93eda1d2e4db7b26800fad7df777372d22525b276c7a90bee699bd097",
            "restoration_report":
                "441c21630d780505fbf1f1c27f4db0f3af54c2c5b51ccb3af202e2429e4ee60c",
            "admin_lives":
                "c5576ed10bce4b30a5a8f1c0aaf769ff656360b686f113c1cdf5dd78ac2feba7",
            "op_lives":
                "ff9c5ed8a1d854dd192c64152d6133de3fe816e69ee3e0c4934d6a49ddd9c4f9",
            "injected_defects":
                "16a289ad8a0c76e6a85e6cd6b88ed64a73e03d66d66494e3bfc80704084924cb",
        },
        "32-bit-era": {
            "world.lives":
                "1f06f08f482ef7d628e63dc143bb3cde381709ed998ac0df4998c69981a0f105",
            "world.transfers":
                "ee9f7c4439b1d28d5832ed9b16c24bae993348e49d14be5ef0af981536f32782",
            "history.afrinic":
                "48160c80f884b88a14ea74b90ed1de8f09f25ab78792d9b0a70ab43aab7ee6b3",
            "history.apnic":
                "01a5df0aff9f5233220b093148ecc1f29550162d9e5a15482e0be24ff5c34355",
            "history.arin":
                "9f525495b607a5c7d3220481f83e6b7895615e60ce528a8729f9ab4ef139900e",
            "history.lacnic":
                "5de1012973f19083779bde06f31d1978e0da581eaf0b86032d5052f0c275e8e8",
            "history.ripencc":
                "18392cbfe6b1901c9fe1a86af16aa1fd88dd3c0b0e2cb93f610c425d71d7f261",
            "restored.stints":
                "59e0ab929ef99d89461620839c247aeb655b3be9eca01b1d0d3335edbe81ad84",
            "views.afrinic.stints":
                "268940467b56098a07b24e507508f2cef73d1546fa28f03ec1c6a6276ab67405",
            "views.afrinic.unavailable_days":
                "200c1fbd34d0bef4ab04e476d43d4ab347099f45256dabda1d377dcd048716e0",
            "views.apnic.stints":
                "d7470e6a68dad7d8c8ef576c2f2b39ffc06a1ba0ea45cfeca30783e1955dd2db",
            "views.apnic.unavailable_days":
                "e1f90dae9a34ca58986cda6b1a9beea6507497d8f0c0719110d89b529a7604f3",
            "views.arin.stints":
                "3790a0664243363ac3a86159d0ee66fb14260c1796dbf056b09eb8068920e0ed",
            "views.arin.unavailable_days":
                "209529ede64c4feda56fe87c4cac94f2e6ae59e2d7e4766b1cc26cbcb1e5ce59",
            "views.lacnic.stints":
                "99594834567d00e32fa171c4b529fae273194e39510eabdc8c4d47eda6c70835",
            "views.lacnic.unavailable_days":
                "63cf88051bd8630547084f45233ed614a44c2de58573c2cec2e78202a24b973e",
            "views.ripencc.stints":
                "0a12dcd6f4a7c1acfa290f9d81e6cfed51cb7e35dc542a2405af173905d4f36b",
            "views.ripencc.unavailable_days":
                "8aff637701d12e725bdca3ce1c473d647bc7abbe765c0a12106f80d151f84932",
            "restoration_report":
                "526d5deb6f23568a42f9b585adb0e0bdfb245a3dc767d65ce2a7abd2671e89b2",
            "admin_lives":
                "f17f69bea8350e19ad7ec5cd44f594c8d4de244f7b06aef1e8c7c9e2e01f4340",
            "op_lives":
                "00def8905a0859bb9b4fe8c81f6b0e0b3ecca2b65971a7a1adc7d0897605443f",
            "injected_defects":
                "1863e08dc54da8673595119d419280828cba614e4f4eebfda4cb5a54d2df8605",
        },
        "mass-transfer": {
            "world.lives":
                "d9cba6ed5921177e1b4c1d3fa1d7855a21d224d35f0993c9de663f5582aed601",
            "world.transfers":
                "ca7ec6df3a2c8e6fd60ee00e75850d2895d17e926a9dcb2d771ce2d0191d8b83",
            "history.afrinic":
                "d2404ea6dc0b989ffe682aa03e2a1fb57cfc05fa7b9c6c9b7aae7a3cf6fc3f17",
            "history.apnic":
                "fcde5066a9f239ee9d669d67aebd64170410b97b583f031470bc41a3fa1d4932",
            "history.arin":
                "e2ac16a0cad27c0285a279cbc57e76e83fd2499c23b55089f5a20049eeed8b64",
            "history.lacnic":
                "9c1e74e57ff34c31d8039895475065c56657cc4a6aa1732b7093cf39466d5aeb",
            "history.ripencc":
                "ab09d43f1872e0488e08fbc8505583391dfa2ca1477bc0e071ff3a56218b3a07",
            "restored.stints":
                "f04fe1fd5156ce611cf5b8cc0840fb605b55b3a03acabe5bb6562aafbbfea288",
            "views.afrinic.stints":
                "5c19607696eb182fd2322d8470e43718a0cc1d7a304fcfbe67dfcdc6ec0a7f78",
            "views.afrinic.unavailable_days":
                "089fba0a734e76aa0893c650259043e34f8e8337088084f286f5f2dd786541eb",
            "views.apnic.stints":
                "9d1367431c76a0b61111913cc58127484d376aaeb745331c97da251152ab7bcb",
            "views.apnic.unavailable_days":
                "c5f0471570ebac1c3e2b4d879bf5c549710b070563fec15cb4b10c6c5d319e0a",
            "views.arin.stints":
                "7f667dbea1c07917e654eb74939c7c44d000df2613827dd3f8cade223ff6c56b",
            "views.arin.unavailable_days":
                "bd9e8487031afdd7c446954301dc52a2f796f762536ae91d56efe6806fd32745",
            "views.lacnic.stints":
                "6960e65812cb8e3490bec96d1bd5f2ca28b398b3b770830fbd3a610b5b3fea3e",
            "views.lacnic.unavailable_days":
                "ec3501b380cc4e86fef137b03fab6bba6ff3c7214039c489da5b8af19ecef1f8",
            "views.ripencc.stints":
                "2a461de82ced20fa1a555c96f9790791f3d8d044f1697584ca7e53c972756ea4",
            "views.ripencc.unavailable_days":
                "11ea3e5553ec810c31e23b595bd4dd1371f0c9a3ab73743f28452c34cf447983",
            "restoration_report":
                "2cfd3b06e80daf42d778bec6d98f469c167701077b75697f221cbb721cfa59c5",
            "admin_lives":
                "2f2befdeaa7c55c40678e3ab51d373b676731525332db47f34695ad0e3d7bd71",
            "op_lives":
                "bc27c6a53add37aba875dd8e01fb0961ae083c8c6dde031752fd37327cb616a7",
            "injected_defects":
                "14b2f94be52f9c840afd4f4a631a3b81ce16a2c94d2ea71b02d855fd91486814",
        },
        "hijack-storm": {
            "world.lives":
                "be015402b231a9cc8d2bd73cb73a7f7c9f3e9572c7079a2e9a732a42eb6eaa9f",
            "world.transfers":
                "de5eeba1de280213c245675a9b814fe72b7a55be12e4abae2ec72eac2b567f4d",
            "history.afrinic":
                "cef6212ad036c5700b8118253dcc01af1f3614c80fdc2e3fa2040b8a93860465",
            "history.apnic":
                "ba7d91c04938b77cf47def23db3102531f835c8cc5851eab2c4899cfca7f07c9",
            "history.arin":
                "e91015802b7b81fb1833331dffa1812c9b7b421f01d8bfefda081865362100bd",
            "history.lacnic":
                "f2153b1295a0c1a7f535ae51b04a81ae62c3aaaaa7b856099d0597f82e86688c",
            "history.ripencc":
                "1c31699326d787d3fe7b9ea32d0de8b819b93140d5c2218c15ff85a104de551e",
            "restored.stints":
                "a8dc51b5b535f3e3fbd86fb5742e5d68331c78a4567d95efd03a03a4cd668638",
            "views.afrinic.stints":
                "118f09995ca950f026234b6fd3d92803a0b563e803f562395f6231eea1abfb86",
            "views.afrinic.unavailable_days":
                "014cd8ddba11edff4f8e8048f619d1abd3fa8fd654c427453676be23d6291c70",
            "views.apnic.stints":
                "226d9f3d5d0ccde4217670a61f4dd2307d94dc92b1481d087723a731cc02f475",
            "views.apnic.unavailable_days":
                "f180623fde8aebb79e5a3c98ea2eb35bacb9aaf432984a0df27b0e7fc18e233c",
            "views.arin.stints":
                "6e05564419ad3ebe4ee8ae877c280abf725024309342828c3061a2a8f0e616a1",
            "views.arin.unavailable_days":
                "f87dc89f4bfda8eea5377006ebfbbe1f81403729436a590d8ffaf3534f288f13",
            "views.lacnic.stints":
                "4543c5832e1d48c5ad879c009ee4104d50df5fcb295c624f21a8132c0c8dd808",
            "views.lacnic.unavailable_days":
                "a60fca386a332fff42fae00bac88926acd3c052cba9f3c1a4bd692a2283ae4c4",
            "views.ripencc.stints":
                "edf3005c86856632f2d9f8d6b41dee67f0bc2820c99cccf2efdd14684f6e324e",
            "views.ripencc.unavailable_days":
                "e39a02e82fbb390d9fbf717598f2f84624cb56504ec723d631d8c0a81c66d67e",
            "restoration_report":
                "a396632ea0791ad585806698f978ebd8f119e986e19bf6fc1725fdff98114b7c",
            "admin_lives":
                "fc3fdae7e565c30ed355e7d17e7c38dacd842ebe86dfab84838b907e921b4ba2",
            "op_lives":
                "556f2438975330c18fbe664de4e5d01d5ec39098130e8668e768a3620b568c5b",
            "injected_defects":
                "4fd7a15c16ef9a3ef1ab8d7d34e17bfd4c431073a84158047d0012d97eaaabf0",
        },
    }

    @pytest.mark.parametrize("name", [
        "regional-internet", "flat-ixp-heavy", "32-bit-era",
        "mass-transfer", "hijack-storm",
    ])
    def test_scenario_output(self, name):
        scenario = get_scenario(name)
        bundle = build_datasets(
            scenario.compile(), scenario_key=scenario_fingerprint(scenario)
        )
        assert pipeline_digests(bundle) == self.DIGESTS[name]
