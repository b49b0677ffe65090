//! Wire bytes pinned to what earlier commits produced: a replica of this
//! build must read and write exactly what a replica of those builds does.
//!
//! GIOP frames were captured at e1d2979, before octet sequences were packed
//! and the object key stopped going through a `Value` per byte; the compact
//! wire beneath GIOP at 28849c3, before each message got one declaration.

use itdos_crypto::hash::Digest;
use itdos_giop::cdr::Endianness;
use itdos_giop::giop::{
    decode_message, encode_message, encode_request, GiopMessage, RequestMessage,
};
use itdos_giop::idl::{InterfaceDef, InterfaceRepository, OperationDef};
use itdos_giop::types::{Seq, TypeDesc, Value};

fn repo() -> InterfaceRepository {
    let mut repo = InterfaceRepository::new();
    repo.register(
        InterfaceDef::new("Counter").with_operation(OperationDef::new(
            "add",
            vec![("delta".into(), TypeDesc::LongLong)],
            TypeDesc::LongLong,
        )),
    );
    repo.register(InterfaceDef::new("Store").with_operation(OperationDef::new(
        "put",
        vec![("blob".into(), TypeDesc::sequence_of(TypeDesc::Octet))],
        TypeDesc::ULong,
    )));
    repo
}

fn blob(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 7 + 3) as u8).collect()
}

fn put(blob: Seq) -> RequestMessage {
    RequestMessage {
        request_id: 9,
        trace: 0x0102_0304_0506_0708,
        response_expected: true,
        object_key: b"store".to_vec(),
        interface: "Store".into(),
        operation: "put".into(),
        args: vec![Value::Sequence(blob)],
    }
}

fn add() -> RequestMessage {
    RequestMessage {
        request_id: 3,
        trace: 5,
        response_expected: true,
        object_key: b"counter".to_vec(),
        interface: "Counter".into(),
        operation: "add".into(),
        args: vec![Value::LongLong(-41)],
    }
}

/// Encodes through both entry points, checks they agree and that the
/// frame decodes back to the request, and returns the frame.
fn frame(request: &RequestMessage, endianness: Endianness) -> Vec<u8> {
    let repo = repo();
    let bytes = encode_request(request, &repo, endianness).expect("encodes");
    let message = GiopMessage::Request(request.clone());
    assert_eq!(
        encode_message(&message, &repo, endianness).expect("encodes"),
        bytes
    );
    assert_eq!(decode_message(&bytes, &repo).expect("decodes"), message);
    bytes
}

#[test]
fn store_put_frames_match_parent_commit() {
    #[rustfmt::skip]
    let golden: [(Endianness, usize, usize, &str); 8] = [
        (Endianness::Big, 0, 68, "1ebcc327fee486d2d38b56b767d2c6938de15ff8f18e6fb807b945c27def2c03"),
        (Endianness::Big, 1, 69, "a750ce811438d47a0a92ffe34dd3fcc26fd73484473b682a671d74ca8e444501"),
        (Endianness::Big, 255, 323, "160541cf2405665126c4e316e9c7d95e7d6c77957dcdd3bb2732b50c0787356c"),
        (Endianness::Big, 4096, 4164, "35c448af7b3402ba1b028f14bae153b3e18c7461ebb1f9c4e1e60818a6d2216f"),
        (Endianness::Little, 0, 68, "64cee561fc0a507524d4996a018a80b6b1b9be74249bbff6d0df64b9279282c8"),
        (Endianness::Little, 1, 69, "9563ec62ab3ef16b2f4d05dc1ef58d4269e49269ecd3f9c31867e856867a2c18"),
        (Endianness::Little, 255, 323, "7d9c627079059da1abff18361027694653a421985a86f4972d039f7d844f4c22"),
        (Endianness::Little, 4096, 4164, "edf70c9a3dad6ef74f3cb054c9397bc3062ef2f75f1814beed3cd2cfe3b3105c"),
    ];
    for (endianness, len, frame_len, sha256) in golden {
        // the blob spelled both ways a caller can: bytes, or items collected
        let packed = Seq::from_octets(blob(len));
        let collected: Seq = blob(len).into_iter().map(Value::Octet).collect();
        for seq in [packed, collected] {
            let bytes = frame(&put(seq), endianness);
            assert_eq!(bytes.len(), frame_len, "{endianness:?} {len}");
            assert_eq!(Digest::of(&bytes).to_hex(), sha256, "{endianness:?} {len}");
        }
    }
    // the one-octet frames in full: header, ids, object key, names, blob
    #[rustfmt::skip]
    let big = [
        71, 73, 79, 80, 1, 2, 0, 0, 0, 0, 0, 57,
        0, 0, 0, 0, 0, 0, 0, 9, 1, 2, 3, 4, 5, 6, 7, 8, 1, 0, 0, 0,
        0, 0, 0, 5, 115, 116, 111, 114, 101, 0, 0, 0,
        0, 0, 0, 6, 83, 116, 111, 114, 101, 0, 0, 0,
        0, 0, 0, 4, 112, 117, 116, 0,
        0, 0, 0, 1, 3,
    ];
    #[rustfmt::skip]
    let little = [
        71, 73, 79, 80, 1, 2, 1, 0, 57, 0, 0, 0,
        9, 0, 0, 0, 0, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1, 1, 0, 0, 0,
        5, 0, 0, 0, 115, 116, 111, 114, 101, 0, 0, 0,
        6, 0, 0, 0, 83, 116, 111, 114, 101, 0, 0, 0,
        4, 0, 0, 0, 112, 117, 116, 0,
        1, 0, 0, 0, 3,
    ];
    let one = || put(Seq::from_octets(blob(1)));
    assert_eq!(frame(&one(), Endianness::Big), big);
    assert_eq!(frame(&one(), Endianness::Little), little);
}

/// `Counter.add` carries no sequence argument: this pins the object-key
/// path alone.
#[test]
fn counter_add_frames_match_parent_commit() {
    #[rustfmt::skip]
    let big = [
        71, 73, 79, 80, 1, 2, 0, 0, 0, 0, 0, 64,
        0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 5, 1, 0, 0, 0,
        0, 0, 0, 7, 99, 111, 117, 110, 116, 101, 114, 0,
        0, 0, 0, 8, 67, 111, 117, 110, 116, 101, 114, 0,
        0, 0, 0, 4, 97, 100, 100, 0,
        0, 0, 0, 0, 255, 255, 255, 255, 255, 255, 255, 215,
    ];
    #[rustfmt::skip]
    let little = [
        71, 73, 79, 80, 1, 2, 1, 0, 64, 0, 0, 0,
        3, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0,
        7, 0, 0, 0, 99, 111, 117, 110, 116, 101, 114, 0,
        8, 0, 0, 0, 67, 111, 117, 110, 116, 101, 114, 0,
        4, 0, 0, 0, 97, 100, 100, 0,
        0, 0, 0, 0, 215, 255, 255, 255, 255, 255, 255, 255,
    ];
    assert_eq!(frame(&add(), Endianness::Big), big);
    assert_eq!(frame(&add(), Endianness::Little), little);
}

// ---- compact wire (everything beneath GIOP) -------------------------------

/// Every compact-wire sample, encoded through the entry points that exist
/// on both sides of the one-definition-per-message refactor.
fn compact_wire_samples() -> Vec<(String, Vec<u8>)> {
    use itdos_bft::state::StateMachine;
    use itdos_tests::wire_samples as s;
    let mut out = Vec::new();
    let mut group = |name: &str, encodings: Vec<Vec<u8>>| {
        for (i, bytes) in encodings.into_iter().enumerate() {
            out.push((format!("{name}[{i}]"), bytes));
        }
    };
    group(
        "Message",
        s::messages().iter().map(|m| m.encode()).collect(),
    );
    group(
        "Envelope",
        s::envelopes().iter().map(|e| e.encode()).collect(),
    );
    group(
        "QueueOp",
        s::queue_ops().iter().map(|o| o.encode()).collect(),
    );
    group(
        "CoreMsg",
        s::core_msgs().iter().map(|m| m.encode()).collect(),
    );
    group(
        "SmiopFrame",
        s::smiop_frames().iter().map(|f| f.encode()).collect(),
    );
    group("GmOp", s::gm_ops().iter().map(|o| o.encode()).collect());
    group(
        "directives",
        vec![itdos::wire::encode_directives(&s::directives())],
    );
    group(
        "HealCmd",
        s::heal_cmds().iter().map(|c| c.encode()).collect(),
    );
    group("transfer payload", vec![s::transfer_payload()]);
    group("QueueMachine snapshot", vec![s::queue_machine().snapshot()]);
    group("GmMachine snapshot", vec![s::gm_snapshot()]);
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Captured at the parent commit (28849c3), while every codec was still a
/// hand-written pair.
#[rustfmt::skip]
const COMPACT_WIRE_GOLDEN: &[(&str, &str)] = &[
    ("Message[0]", "0109000000000000000300000000000000030000000900000003000000010203"),
    ("Message[1]", "0201000000000000000500000000000000749befd6679747e9b633713ef7db8e25a331166352fc93fecac6bf1d6b1575b102000000090000000000000003000000000000000300000009000000030000000102030a0000000000000001000000000000000000000000000000020000000405"),
    ("Message[2]", "020300000000000000090000000000000060a388c80c9ba95e8d7c3233e2800a8de69b8a82419330695a3d55e1ff251f9700000000"),
    ("Message[3]", "030100000000000000050000000000000014f1f437146352e866142fdf602165505a5a28bf5b578d154c9ed5e98f7465ac02000000"),
    ("Message[4]", "04040000000000000006000000000000009505cacb7c710ed17125fcc6cb3669e8ddca6c8cd8af6a31f6b3cd64604c309801000000"),
    ("Message[5]", "0501000000000000000300000000000000090000000000000000000000010000002a"),
    ("Message[6]", "0610000000000000004ba69735ca53765ed6a709edb56c6ea236b7193a3b29a6b390c346f0f4340e4e01000000"),
    ("Message[7]", "07020000000000000010000000000000000100000010000000000000004ba69735ca53765ed6a709edb56c6ea236b7193a3b29a6b390c346f0f4340e4e010000000100000001000000000000000500000000000000749befd6679747e9b633713ef7db8e25a331166352fc93fecac6bf1d6b1575b102000000090000000000000003000000000000000300000009000000030000000102030a0000000000000001000000000000000000000000000000020000000405010000000100000000000000050000000000000014f1f437146352e866142fdf602165505a5a28bf5b578d154c9ed5e98f7465ac0200000003000000"),
    ("Message[8]", "08020000000000000001000000020000000000000010000000000000000100000010000000000000004ba69735ca53765ed6a709edb56c6ea236b7193a3b29a6b390c346f0f4340e4e010000000100000001000000000000000500000000000000749befd6679747e9b633713ef7db8e25a331166352fc93fecac6bf1d6b1575b102000000090000000000000003000000000000000300000009000000030000000102030a0000000000000001000000000000000000000000000000020000000405010000000100000000000000050000000000000014f1f437146352e866142fdf602165505a5a28bf5b578d154c9ed5e98f7465ac02000000030000000100000001000000000000000500000000000000749befd6679747e9b633713ef7db8e25a331166352fc93fecac6bf1d6b1575b102000000090000000000000003000000000000000300000009000000030000000102030a000000000000000100000000000000000000000000000002000000040502000000"),
    ("Message[9]", "09100000000000000001000000"),
    ("Message[10]", "0a10000000000000000200000007080100000010000000000000004ba69735ca53765ed6a709edb56c6ea236b7193a3b29a6b390c346f0f4340e4e0100000003000000"),
    ("Envelope[0]", "00020000000000000002000000010200240000000400000057ed2759898367c5cbd2b8a9f3993524cfd1563728e2b42cfdf12b4e30bebf8e"),
    ("Envelope[1]", "000200000000000000010000000301bb712e3b44205c01bfcb072258e8b30b"),
    ("Envelope[2]", "0105000000000000000100000004002400000004000000a0ccdb17fafb81b02c527d7e034d3bfa6370ab72ef299b3e8f44a132e9cc46f6"),
    ("QueueOp[0]", "0003000000010203"),
    ("QueueOp[1]", "01070000002a00000000000000"),
    ("QueueOp[2]", "0202000000"),
    ("QueueOp[3]", "0305000000"),
    ("CoreMsg[0]", "010400000000000000050000000102030405"),
    ("CoreMsg[1]", "020700000000000000020000002a00000000000000010300000000000000010000000000000072420f000000000018000000090909090909090909090909090909090909090909090909"),
    ("CoreMsg[2]", "030700000000000000030000000600000029000000000000000c000000080808080808080808080808934d4a257389b60f48f4967e70ee7901"),
    ("CoreMsg[3]", "0473420f0000000000050000000000000002000000080000000303030303030303"),
    ("CoreMsg[4]", "0574420f000000000005000000000000001e00000002000000010000006300000000000000070000000000000033fdaa5a1c5af000080000000404040404040404"),
    ("SmiopFrame[0]", "0900000000000000030000000042420f000000000005000000000000004d000000000000001000000006060606060606060606060606060606934d4a257389b60f48f4967e70ee7901"),
    ("SmiopFrame[1]", "0900000000000000030000000142420f000000000005000000000000004d000000000000001000000006060606060606060606060606060606934d4a257389b60f48f4967e70ee7901"),
    ("GmOp[0]", "010900000000000000000100000000000000"),
    ("GmOp[1]", "0144420f00000000000102000000000000000100000000000000"),
    ("GmOp[2]", "02360000000100000003000000090000000000000001000000000000000100000000000000020000000505934d4a257389b60f48f4967e70ee7901"),
    ("GmOp[3]", "030000000003000000"),
    ("GmOp[4]", "040200000000000000"),
    ("GmOp[5]", "0501000000000000000e00000003000000160000000000000033fdaa5a1c5af000"),
    ("GmOp[6]", "06010000000000000002000000"),
    ("directives[0]", "06000000010700000000000000020000002a000000000000000103000000000000000100000000000000070707070707070707070707070707070707070707070707070707070707070702000000010000000000000040420f0000000000020200000003010000000000000003000000040501000000000000000e00000003000000020000001600000000000000010000000000000033fdaa5a1c5af00006010000000000000002000000"),
    ("HealCmd[0]", "0107000000"),
    ("HealCmd[1]", "02"),
    ("transfer payload[0]", "100000000f00000000000000040000000000000002000000070000000000000000000000000000000200000001000000000000000800000005000000000000000200000000000000080000000e00000000000000080000000000000000000000000000000200000001000000000000000800000003000000000000000200000000000000080000000f00000000000000"),
    ("QueueMachine snapshot[0]", "640000000000000002000000000000004229c4d572fb361b0f179c91ae931fafd7c8b1d845b849422de5fc25b12bd552020000000000000000000000030000000102030100000000000000010000000403000000000000000000000000000000010000000100000000000000020000000000000000000000"),
    ("GmMachine snapshot[0]", "03000000120000000109000000000000000001000000000000000900000003000000000300000003000000010203"),
];

#[test]
fn compact_wire_vectors_match_parent_commit() {
    let samples = compact_wire_samples();
    assert_eq!(samples.len(), COMPACT_WIRE_GOLDEN.len());
    for ((name, bytes), (golden_name, golden)) in samples.iter().zip(COMPACT_WIRE_GOLDEN) {
        assert_eq!(name, golden_name);
        assert_eq!(hex(bytes), *golden, "{name}");
    }
}
