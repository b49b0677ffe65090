//! GIOP frames pinned to the bytes the parent commit (e1d2979) produced,
//! captured before octet sequences were packed and the object key stopped
//! going through a `Value` per byte. A replica of this build must read and
//! write exactly what a replica of that build does.

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
