"""Golden bytes: the serialized form of FOR, LeCo-fix, LeCo-var, Delta-fix,
Delta-var and LeCo-angle on 100K values of every §4.1 data set (generators'
fixed seeds) must not change.  A change to the partition layout, the encode
kernels or the variable-length Partitioner that moves a single byte fails
here; a deliberate format change updates these digests and says why.

The Delta-var and LeCo-angle digests (the other users of ``var_partitions``
and of LeCo's per-partition fit) were recorded from the code before the
split phase of ``var_partitions`` was vectorized and its exact widths
memoized, so they pin that rewrite to the old output.

The digests were recorded when each partition header sat in front of its
payload.  The blob now holds all headers as one array ahead of the
payloads, with the same fields and size, so each blob is hashed after
:func:`_records` puts every header back in front of its payload: a digest
still pins every field of every case, and
``tests/test_format_table.py::test_header_array_layout`` pins the order."""
import hashlib
import struct

import pytest

from repro.core.codec_api import get_codec
from repro.core.pla import LeCoAngle
from repro.datasets import INTEGER_DATASETS

N = 100_000

GOLDEN = {
    "FOR/linear": "ee0a239e0393c378402abdf983ad647c9f1bf6dd4d67c855df68bca874943e60",
    "FOR/normal": "96aa544b4cfe71848df028f794689e3449514fa0d1d3b7e774c835c8b8133eeb",
    "FOR/poisson": "7e5cff461250abb9ea07f82756c0e77ed5b3b74d3ec6f9d8646284454aa67f52",
    "FOR/ml": "341873a4c736fb54312c4f9ca9283f79af2fb64a217988f45d087198725844f6",
    "FOR/books": "670c204fb6cebd2eab76ace5bde073092f1bda1a2f459c27ac2fecaf5eff247d",
    "FOR/fb": "8552624dc66e8bf29352206955e85bd6b4e7aa99c26f20872015b64ff8dbebf4",
    "FOR/wiki": "3b11ee4a00af50149f73eca69a5df51a0e79891e1f5ec732f0a804bed8be862c",
    "FOR/movieid": "9d48356a946ab9ab68d3e7c187443984c22d153c2db16c403ef54db1f9a13373",
    "FOR/house_price": "7715c192cbc27e98a468ff305b0399ba59df1d9010a1e4615afad8db4e4cb89f",
    "LeCo-fix/linear": "45e4c6f9466e1a22d023573207a7a072180477f73515522d606be134d9dba58e",
    "LeCo-fix/normal": "484697b6f69c2fe4239b6b8378abc77d92f191c23dce72a8ec1c474a1381096c",
    "LeCo-fix/poisson": "b42fd9748e6f2c1669931477f7f233f65ad4387e44ac91b27350cb6dc68d9d22",
    "LeCo-fix/ml": "5f9830c21c0d8cc223e422905d19f0e0dd01bc59f3afec819bcd86f7e8c4afd3",
    "LeCo-fix/books": "d2213e289daed5b0a1861932ae9d6362d9754a27846e4a5e604d754f0a3d6ca9",
    "LeCo-fix/fb": "1730896e6b9bf9017d0a28e746c759f1739229967efb786b692f64a2f49dbbf5",
    "LeCo-fix/wiki": "b5f931cf794455bf5ef065705e26eccfc03b74c249a1fa20e29f79c60c92d221",
    "LeCo-fix/movieid": "8b696e313a1d5fc5ecae701d107ddbf8d85be0efe35649970cb6d876412cee20",
    "LeCo-fix/house_price": "88d29c20fdc07744d823ce6d5e1b3e53650d9d0753bf0d279ce1cf3778ed896d",
    "LeCo-var/linear": "d9ea03b0e64f8b67f9a703e357619c948a54141db16b1e0d71e932067e7be38d",
    "LeCo-var/normal": "1167764dc664d67b6ad1b84ebc1157a9e1610318b30d4675368d4dcd3c8cef0e",
    "LeCo-var/poisson": "be74ee039435b8762d9590fb2d669016e1475958c2108b562825a2c23451ec2f",
    "LeCo-var/ml": "11730e0beeead70db8d988664619fa28728fa289f894048298083ee1ae284e4c",
    "LeCo-var/books": "8ce2c9ed98dea9c7c74a707ff26302019e74ff5b378206d07a2a7f02ca169def",
    "LeCo-var/fb": "0e24294c0d82c436db2df0b4ad02cac2cfd66a2ad4f366dc51d64a097f048bbc",
    "LeCo-var/wiki": "115f7d177589174b1b9e1125bc00a9974ce441f8c3c18793f9dee9bf710a4b9a",
    "LeCo-var/movieid": "c47bee45dcdc06cbf1c23f5aa3be1e3b5c012f55cbcfd4818174dd1d929005f4",
    "LeCo-var/house_price": "0ede18fae8e44bf64608afed6768b07aafa403c14c43355aabc7cb0376e85d99",
    "Delta-fix/linear": "bca289f8bc4783555fb5f36349e308c019ea0c40ce57ca4cb75ff7c2d6d8225d",
    "Delta-fix/normal": "a79b031373218d0696cbcd18db5fa4e7f8b5308bac0d87bdf052c04e5a92bcfe",
    "Delta-fix/poisson": "80fba444c829c08f755656341ebb42dbf496de0cc7df41d54e248167585c4a55",
    "Delta-fix/ml": "eb343460a319b3e581433d76a930648dad5c8634697b7cdfadfb4fd271adcaaa",
    "Delta-fix/books": "d79686ddf85da0b2ad545354034709a47c295249aebe68e1483af0b7747d4478",
    "Delta-fix/fb": "8c500a80ac615708f28e103bfa6c3696e905ae6c81ec9ec8f8961fa81391f8ef",
    "Delta-fix/wiki": "bd6e88fc56a1afc026ef35670c14bd2c20eb87fb2deabfebffb6b22a2b4ddba5",
    "Delta-fix/movieid": "40699e6bf5c75a9a21aa620f251706c66a19d75fd0be4035c632670801cd5847",
    "Delta-fix/house_price": "0cd255a6d11d7d637d24e7b9261083213aea7ffcae3713f5f5110e23152c4f69",
    "Delta-var/linear": "b70a4c9b964d1daf184dc357930403f89691a36ea725fabae793e6a6e54ed51c",
    "Delta-var/normal": "04dd21f3cc1822434b846042db283075fd1c170fa572b8954a12fe861ee64d93",
    "Delta-var/poisson": "28093bb36810d5ce476cd682719ebea4664b1ccb614d7d2beebfc7899630ddaf",
    "Delta-var/ml": "c122d3305a1ecbd638ffc5c11772a11b673392a86d49d3ae126b4eff5e72384a",
    "Delta-var/books": "ede62edfcb90e68114745e28738caed368be09efe3e597434553753677b28ba7",
    "Delta-var/fb": "1744b562fe61b14e9f5a32160cc50750d692fd677fa814481df2c996d42c238b",
    "Delta-var/wiki": "c79bf5de0300b5a4a88680ed77a9c4b6b63ca12a8be6346fb80ad010e6423063",
    "Delta-var/movieid": "8860bda538a6570d0c7f9c3145f58f8c830052f958464a703987aee43cbf9967",
    "Delta-var/house_price": "91406f73bce7f12c25df427abd692fe7b6ff77d44653819ed4dc28675e697b05",
    "LeCo-angle/linear": "ae8fc97b74c4b884ca66866870441f5b4f360dc14a29f95281a0e9573b3b3fda",
    "LeCo-angle/normal": "8099e642686ed47ff4af53eacfd455dc2214282e2ac5b678f1269671a123c2fd",
    "LeCo-angle/poisson": "48293a1b0083ce3b45bde66a2ab62e4652db6cc8010a3122e8376234b22b2aa0",
    "LeCo-angle/ml": "717fc953bc2cf0d89c1510e32ed3c8693ae42bd9c35074fd585964347df4acba",
    "LeCo-angle/books": "1511c1b18541fa2d0b6b8e4eb789a25096d463440c31c12d4b129b96b71ec238",
    "LeCo-angle/fb": "05036ea8e7b8cedae71fdd28261b48331ffc7aaf9d61758191c414c9606938eb",
    "LeCo-angle/wiki": "400cbe9ae3760fde49a4bfa313b74c77d3deef3cc23440f7850d5c23afca837b",
    "LeCo-angle/movieid": "605f8130538e66fe19cb64f74355c26d6e80c0aec81e6eb2f80244b8e213857c",
    "LeCo-angle/house_price": "eea3aeb795e8bda856b0000703dd22a02f524fa087ee0ee6ece6ff1beb183f9b",
}


def _records(blob: bytes) -> bytes:
    """``blob`` with its 29-byte partition headers interleaved back in
    front of their payloads, read from the bytes alone."""
    flags, m = blob[3], struct.unpack_from("<I", blob, 13)[0]
    at = 17 + (4 if flags & 1 else 4 * m)
    out, off = [blob[:at]], at + 29 * m
    for k in range(m):
        hdr = blob[at + 29 * k : at + 29 * (k + 1)]
        size = struct.unpack_from("<I", hdr, 25)[0]
        out += [hdr, blob[off : off + size]]
        off += size
    assert off == len(blob)
    return b"".join(out)


#: schemes not in the codec registry
UNREGISTERED = {"LeCo-angle": LeCoAngle()}


@pytest.mark.parametrize("key", list(GOLDEN))
def test_serialized_bytes_unchanged(key):
    scheme, dataset = key.split("/")
    values, bits = INTEGER_DATASETS[dataset](N)
    codec = UNREGISTERED.get(scheme) or get_codec(scheme)
    blob = codec.encode(values, dtype_bits=bits).to_bytes()
    assert hashlib.sha256(_records(blob)).hexdigest() == GOLDEN[key]
