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

// ---- whole BFT frames ------------------------------------------------------

/// The three ways a sender authenticates a message: a MAC authenticator
/// for every replica, a one-entry authenticator for one client, a
/// signature.
const AUTH_MODES: [&str; 3] = ["mac-replicas", "mac-client", "signed"];

/// Two domain ids: one small, one using every byte of its `u64`.
const FRAME_DOMAINS: [u64; 2] = [1, 0x0807_0605_0403_0201];

/// The replica (2 of 4) that sends every frame below.
fn frame_sender() -> itdos_bft::auth::AuthContext {
    let keys = itdos_bft::auth::KeyProvisioner::new([7u8; 32]);
    itdos_bft::auth::AuthContext::for_replica(keys, itdos_bft::config::ReplicaId(2), 4)
}

/// Every `Message` sample under every auth mode and domain, framed the
/// layered way: the message encoded, wrapped in an `Envelope`, that
/// encoded and wrapped in `CoreMsg::Bft`.
fn layered_frames() -> Vec<(String, Vec<u8>)> {
    use itdos::wire::CoreMsg;
    use itdos_groupmgr::membership::DomainId;
    let auth = frame_sender();
    let mut out = Vec::new();
    for (i, message) in itdos_tests::wire_samples::messages().iter().enumerate() {
        for mode in AUTH_MODES {
            let envelope = match mode {
                "mac-replicas" => auth.mac_envelope(message),
                "mac-client" => {
                    auth.mac_envelope_for_client(itdos_bft::config::ClientId(42), message)
                }
                _ => auth.signed_envelope(message),
            };
            for domain in FRAME_DOMAINS {
                let frame = CoreMsg::Bft {
                    domain: DomainId(domain),
                    envelope: envelope.encode().into(),
                };
                out.push((format!("Message[{i}] {mode} {domain:x}"), frame.encode()));
            }
        }
    }
    out
}

/// The frames the one-buffer send path (`itdos::wire::bft_frame`) builds
/// for every `Message` sample and domain: addressed to the replicas, in
/// the mode the message's kind calls for, and addressed to one client.
fn one_buffer_frames() -> Vec<(String, Vec<u8>)> {
    use itdos_bft::message::Message;
    use itdos_groupmgr::membership::DomainId;
    let auth = frame_sender();
    let mut out = Vec::new();
    for (i, message) in itdos_tests::wire_samples::messages().iter().enumerate() {
        let own_mode = match message {
            Message::ViewChange(_)
            | Message::NewView(_)
            | Message::Checkpoint(_)
            | Message::StateData(_) => "signed",
            _ => "mac-replicas",
        };
        let client = Some(itdos_bft::config::ClientId(42));
        for (mode, client) in [(own_mode, None), ("mac-client", client)] {
            for domain in FRAME_DOMAINS {
                let frame = itdos::wire::bft_frame(&auth, DomainId(domain), message, client);
                let envelope = &frame.bytes[13..];
                assert_eq!(frame.envelope_len, envelope.len());
                let decoded = itdos_bft::auth::Envelope::decode(envelope).expect("decodes");
                assert_eq!(frame.auth, decoded.auth.kind());
                out.push((
                    format!("Message[{i}] {mode} {domain:x}"),
                    frame.bytes.to_vec(),
                ));
            }
        }
    }
    out
}

/// `(case, frame length, SHA-256 of the frame)`, captured at the parent
/// commit (7cbcef7), where every frame was built by the layered encode.
///
/// Re-pinned since: the twelve MAC'd rows of `Message[0..=2]` (the request
/// and both pre-prepares under `mac-replicas`/`mac-client`). Their MAC
/// entries now cover `Message::mac_digest` — a request by its digest, a
/// pre-prepare by its fields and batch digest — instead of the SHA-256 of
/// the encoded payload; only those tag bytes moved, no length did, and
/// every other row (signatures, and MACs over the other kinds, which stay
/// `H(payload)`) is the 7cbcef7 capture. The tags were recomputed outside
/// this crate from the construction in `mac_digest_is_pinned` below.
#[rustfmt::skip]
const BFT_FRAME_GOLDEN: &[(&str, usize, &str)] = &[
    ("Message[0] mac-replicas 1", 99, "df465df98222c3959af04e6d6738cc169f401ad6381f36b1bc9438a63cbc618d"),
    ("Message[0] mac-replicas 807060504030201", 99, "81c6c5a50c4198c8485a0c1d54893eb397eefa102bc9a9129ad510c202ad3478"),
    ("Message[0] mac-client 1", 75, "4d17f2742f38aeadb21e533ee5f48c15f898683d7cb63ba6d3e7d729d67f9616"),
    ("Message[0] mac-client 807060504030201", 75, "b38ad90cd70027b3900be8c84539e31f8db9e350676534afdc1f65cb3f5912be"),
    ("Message[0] signed 1", 75, "e10d91e32165842cb9121ff29410950a6af644473b2efee2eef3ef0044128fce"),
    ("Message[0] signed 807060504030201", 75, "c827c1e235a54df5d82ddad5d3e598643f42cafac6b5a2bfb853d7cee9526b2f"),
    ("Message[1] mac-replicas 1", 181, "06481ced9b23daa3da7bb00927c09bc0bd1c7ab3a729546a56ae88e934de534b"),
    ("Message[1] mac-replicas 807060504030201", 181, "42a218a93cb233c33ed082e23593a27d3dbffaa163f5fdd05bb0f307b33386cf"),
    ("Message[1] mac-client 1", 157, "a126e69a8033fc6fca5ad0df5cae8281608b2f490a190ba9f1226d8c61c0a593"),
    ("Message[1] mac-client 807060504030201", 157, "cbc8f49df9a2c39d75ee9b24e9568b483f38529a83e16c55b15183fa304e5398"),
    ("Message[1] signed 1", 157, "caf6bbb30c933fa2ad2ddc8addbecdec727a4a9127edc6541593428cb4d872d5"),
    ("Message[1] signed 807060504030201", 157, "208a471e0051dd7d4dbd5656b91ac6d10a11912ca28bee7cf201c2df8f1dbd40"),
    ("Message[2] mac-replicas 1", 120, "0a9c63b00c65e763e7d51a5b619a3fcea25b6c334d62c3f119ed9680abc5d0ea"),
    ("Message[2] mac-replicas 807060504030201", 120, "a0cb93298584d8fae235ad6890ac0a99ac338f540a72d7c5927755adf57734c8"),
    ("Message[2] mac-client 1", 96, "6d9e1ae4e18166b24a1bfb7bbd515a179a197cc4c5eb09615e084ff02ea2059a"),
    ("Message[2] mac-client 807060504030201", 96, "f28a962893ab78a66eac32e3b56c9d753e382bd447a747f719d98ec79cf54a9b"),
    ("Message[2] signed 1", 96, "d03da40f4a583bb1e72396891085e72944a7c3283e9b9f5209997e0aa333d6b6"),
    ("Message[2] signed 807060504030201", 96, "9a662b657e903e31a01d9e47d0ee01574bd60cde38fe7e82f4c3a2b670c59f66"),
    ("Message[3] mac-replicas 1", 120, "fa20ea160a3ee017e9d2d5161a74053348c1646f2b12033f1e95e744b0f6f765"),
    ("Message[3] mac-replicas 807060504030201", 120, "bd2bdd8d6809c60ec950deb533472c36bece934ada72f52d10da351ab50639f6"),
    ("Message[3] mac-client 1", 96, "a86910faa6063e6aa6a6e6d16099097f9051baaea66b8017027f2716030e8b01"),
    ("Message[3] mac-client 807060504030201", 96, "82fe5673405c561cdec6d116cb2b14dcf78a29ffa978518c5e72b30760ad7afc"),
    ("Message[3] signed 1", 96, "839d4f7722733560daf76c7e1e0feea286cca5ed1bfcc313a80207f5094c8c7d"),
    ("Message[3] signed 807060504030201", 96, "4105c2bcb480106e8c316d2e0b5a92505155c3a9ee56083f370c62b78e65c97c"),
    ("Message[4] mac-replicas 1", 120, "a4dbbbefa2097030f9d13cfaf4b30595eed50dca067b69a94bd312e8b0aedbe6"),
    ("Message[4] mac-replicas 807060504030201", 120, "66fde7d6a58a5943b337be67147c47b8885abb62e1b20f25743fd75c603accf2"),
    ("Message[4] mac-client 1", 96, "439c36cf7b75757b55b7be282621a2d36fa9be0abb9adafcc8db5a2b4eb2ca24"),
    ("Message[4] mac-client 807060504030201", 96, "2b8924880d1da988c36e7399491eba6ada97e9bfa3d27d2e7ef264c8c1ad1785"),
    ("Message[4] signed 1", 96, "791a9a221b391891c32d01859ef9190632602ce472ce40e38d2836997f7d25e0"),
    ("Message[4] signed 807060504030201", 96, "fc5bf08cb9a5b7543d0b3545eb9cf669114d338ca79bc5db95aeedec1771eb2b"),
    ("Message[5] mac-replicas 1", 101, "9f6ad040273e5832ad843a99af1a2ebf0d929e0563b9d42a057153ac5f43786e"),
    ("Message[5] mac-replicas 807060504030201", 101, "76c6a80ab000b7addf1f87efef8ab177df26a5e3e9ab3ea0fc0cd6f3e6a49144"),
    ("Message[5] mac-client 1", 77, "70d1b83b2a9bbebb3b17a4e073a8764d1b7afdd48bcb29d1f6437197dd584156"),
    ("Message[5] mac-client 807060504030201", 77, "b7d5fb0d89e8c23a31c3941855ef818ebf655cc8ff6083f5a71c166cbfb63330"),
    ("Message[5] signed 1", 77, "ef32d76ad56f02661c2efd06ddc75e80599b6df82160e37b4073492e9bc39a75"),
    ("Message[5] signed 807060504030201", 77, "4f927d0a2bcf6ac570c8bc318bf32aef839ce86f015505898f3923599a9f4557"),
    ("Message[6] mac-replicas 1", 112, "b3284b4b7f1c8dcbc30ec20b24d1483a6f70e176f68aca8e4c23a98fbf125a7e"),
    ("Message[6] mac-replicas 807060504030201", 112, "15237045068b656c50bb9c58df11e2bbe2c14a7582f5025974f5f606288e56ed"),
    ("Message[6] mac-client 1", 88, "7c939fe5e6a8b320fb6bb1962ef1c0ca288763980c63ee08956371a76ff75b9f"),
    ("Message[6] mac-client 807060504030201", 88, "1954e40d214607b716a99940a065de0bebd95c58d76ea11156ce0db722033024"),
    ("Message[6] signed 1", 88, "34f6bb2ec01a9d58c2c16d5fe8ff159bcac818f7df09581fa6bdce8aaa9c9547"),
    ("Message[6] signed 807060504030201", 88, "90abe95601b9b9ffebc585a0e0ed0dd5ef4ad676ab11fabaae48b953f04d8b80"),
    ("Message[7] mac-replicas 1", 309, "528e38317e2f3b4ff65e4ba1523273bd9c249d481eb004767abb0d91e0123ca5"),
    ("Message[7] mac-replicas 807060504030201", 309, "e75a9231716ebc9b9557e008116a67ebee54acb997c34f7f97ee065729b6ea56"),
    ("Message[7] mac-client 1", 285, "a439d2621f4ebf7ee9b6b03861ceb31e19ebbf209925ce23835d599ee5bed4af"),
    ("Message[7] mac-client 807060504030201", 285, "fdfc32a7c3000de08354aa1737ae9ee6e7a34b2dcf3c27fd71507e50672799f3"),
    ("Message[7] signed 1", 285, "43c0ac3970b54f4bfd8de841f3296f69857210735a0be121017fcf80748aa403"),
    ("Message[7] signed 807060504030201", 285, "6da7072d7af8f12e19cc49e9baae6d5072e071cbddc45ece7aecac818d45eac1"),
    ("Message[8] mac-replicas 1", 442, "45bad60cad4adb75b37d3378c6100f5e1c7498bcb7fe60527c37f9195b9085a8"),
    ("Message[8] mac-replicas 807060504030201", 442, "1d416ecc56d47f3d0c1e9f8bcdaea39ea027ebb50910ef841d1f58966531b7a9"),
    ("Message[8] mac-client 1", 418, "9c9d266d27e663f71590c4491e6ca72c554c1435821bb8f7c40b747f12a2742f"),
    ("Message[8] mac-client 807060504030201", 418, "023d422ac4d502989a7d3b4485c99bc9bdc9c58efe408a17e843b113f90a3caf"),
    ("Message[8] signed 1", 418, "851413bc3876a5653151f9c713fc574b13e57903e7280ef498fcef0cd51ca9c5"),
    ("Message[8] signed 807060504030201", 418, "d2fd073e5e7f13cee540b3e1b6f7cad2a70948580fab4432044a1980bdab2cf0"),
    ("Message[9] mac-replicas 1", 80, "a50e8884c151c4d3e169c7292184ddf97113e9d90c453f2ed9319534307744f8"),
    ("Message[9] mac-replicas 807060504030201", 80, "41eb2670be617d64eff1db4d0e677334d065798d75c628492bd1df1576746a94"),
    ("Message[9] mac-client 1", 56, "6bc89a52c9cfc51b286605ce4d2de2b5d248c2a1cde21b61a19ec8f3e10b9d8c"),
    ("Message[9] mac-client 807060504030201", 56, "43332c61cbb9e690b994a9aad0f70109326ff3dd496aa3a9358872a977b20317"),
    ("Message[9] signed 1", 56, "4db68d23d8dbdafee809168b278c75715b92b5a4ec5b974cf07563867796aae9"),
    ("Message[9] signed 807060504030201", 56, "32942118d8e46aab0a7fe5660f3c8928eb52633490f067b9dc27425a3274fd2f"),
    ("Message[10] mac-replicas 1", 134, "ce4bc4634268e86a4f74ad7c480340ddb22f84bb9337ca24f1fe526503e573be"),
    ("Message[10] mac-replicas 807060504030201", 134, "94805854d4bcd810dcd9c6c35509c4a265a0d555b1bc32d041faa9acc3ea60cd"),
    ("Message[10] mac-client 1", 110, "a688bd778ffa8531c78a3892bf795ee9c0138cd1a4df9a40400a3fb4d67f8942"),
    ("Message[10] mac-client 807060504030201", 110, "99acfb103a2b1bc580663fb3e89304567e15c3569e13c79381bdeb5a5f676211"),
    ("Message[10] signed 1", 110, "f60dc4f48fb87b44092f8e8d4c7c0dcdf9b7de813ebd8cabb734b2e81ddb9666"),
    ("Message[10] signed 807060504030201", 110, "f02747bd016b37cc2c8e1a04dc95d85478fdd9c130d07cb8a92654742f6e423d"),
];

fn assert_golden_frame(name: &str, bytes: &[u8]) {
    let (_, len, sha256) = (BFT_FRAME_GOLDEN.iter())
        .find(|(golden, ..)| *golden == name)
        .unwrap_or_else(|| panic!("no golden frame {name}"));
    assert_eq!(bytes.len(), *len, "{name}");
    assert_eq!(Digest::of(bytes).to_hex(), *sha256, "{name}");
}

#[test]
fn layered_bft_frames_match_parent_commit() {
    let frames = layered_frames();
    assert_eq!(frames.len(), BFT_FRAME_GOLDEN.len());
    for (name, bytes) in &frames {
        assert_golden_frame(name, bytes);
    }
}

/// The one-buffer frame is, byte for byte, the parent's layered one.
#[test]
fn one_buffer_bft_frames_match_parent_commit() {
    let frames = one_buffer_frames();
    assert_eq!(frames.len(), 11 * 2 * FRAME_DOMAINS.len());
    for (name, bytes) in &frames {
        assert_golden_frame(name, bytes);
    }
}

/// What a MAC on the sample request and pre-prepares covers, computed
/// outside this crate from the construction `Message::mac_digest` states:
/// `H("bft-mac-request" ‖ request digest)` and `H("bft-mac-pre-prepare" ‖
/// view ‖ seq ‖ digest ‖ batch digest)`, integers little-endian. Any other
/// kind is covered by the SHA-256 of its encoding.
#[test]
fn mac_digest_is_pinned() {
    let messages = itdos_tests::wire_samples::messages();
    let pinned = [
        "d7c3226af5b00fd54d277e70a070a1776f1238a219c6cb6941b5d01a271cd8f4",
        "8df85c50059e06cd4d3e81490ca08bff49cce54d7d087da320aa2bcb5f606f12",
        "b4acdbb5a094bbb7d5cf81a394509eb19e04b31fc76171219e4edc45d3daf361",
    ];
    for (message, hex) in messages.iter().zip(pinned) {
        assert_eq!(message.mac_digest(&message.encode()).to_hex(), hex);
    }
    for message in &messages[pinned.len()..] {
        let payload = message.encode();
        assert_eq!(message.mac_digest(&payload), Digest::of(&payload));
    }
}

// ---- keys and signatures -------------------------------------------------

/// Key bytes captured at the parent commit (7cbcef7), whose key labels
/// were built on the heap: hashing the label parts where they lie must
/// derive the very same keys, or old and new replicas would disagree on
/// every MAC.
#[test]
fn pairwise_keys_match_parent_commit() {
    use itdos_bft::config::{ClientId, ReplicaId};
    let keys = itdos_bft::auth::KeyProvisioner::new([7u8; 32]);
    assert_eq!(
        hex(keys.replica_pair(ReplicaId(0), ReplicaId(3)).as_bytes()),
        "0439a5fd5dc0cf3df9eeff80305c36c703ec9fadc515db882d0f4e0efc7221b7"
    );
    assert_eq!(
        hex(keys.client_pair(ClientId(42), ReplicaId(1)).as_bytes()),
        "4f303059b94b2e63e5bdc58fdcc6ddfecbe30524d2004271371d9fa7655b149d"
    );
    let signing = keys.signing_key(ReplicaId(2)).verifying_key();
    assert_eq!(signing.to_bytes(), [30, 44, 13, 114, 207, 5, 118, 0]);
}

/// A reply signature captured at the parent commit (7cbcef7), which signed
/// a concatenated copy of `"itdos-reply:" ‖ sender ‖ sequence ‖ frame`:
/// signing the parts in place must give the same bytes.
#[test]
fn reply_signature_matches_parent_commit() {
    use itdos_crypto::sign::SigningKey;
    use itdos_vote::detector::SignedReply;
    let key = SigningKey::from_seed(b"golden-signer");
    let frame: Vec<u8> = (0..300usize).map(|i| (i * 11 + 2) as u8).collect();
    let signed = SignedReply::sign(&key, itdos_vote::vote::SenderId(5), 77, frame);
    assert_eq!(
        signed.signature.to_bytes(),
        [181, 212, 61, 251, 196, 113, 43, 9, 49, 2, 171, 38, 119, 212, 148, 8]
    );
    assert!(signed.verify(&key.verifying_key()));
}

#[test]
fn compact_wire_vectors_match_parent_commit() {
    let samples = compact_wire_samples();
    assert_eq!(samples.len(), COMPACT_WIRE_GOLDEN.len());
    for ((name, bytes), (golden_name, golden)) in samples.iter().zip(COMPACT_WIRE_GOLDEN) {
        assert_eq!(name, golden_name);
        assert_eq!(hex(bytes), *golden, "{name}");
    }
}
