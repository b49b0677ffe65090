//! ChaCha20 (RFC 8439 §2.3–2.4), implemented from scratch.
//!
//! The session cipher behind [`crate::symmetric`]: one block function call
//! yields 64 keystream bytes from a 256-bit key, a 32-bit block counter and
//! a 96-bit nonce. Safe portable Rust; every index is a constant.

/// "expand 32-byte k", the four constant words of the initial state.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

macro_rules! quarter_round {
    ($s:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
        $s[$a] = $s[$a].wrapping_add($s[$b]);
        $s[$d] = ($s[$d] ^ $s[$a]).rotate_left(16);
        $s[$c] = $s[$c].wrapping_add($s[$d]);
        $s[$b] = ($s[$b] ^ $s[$c]).rotate_left(12);
        $s[$a] = $s[$a].wrapping_add($s[$b]);
        $s[$d] = ($s[$d] ^ $s[$a]).rotate_left(8);
        $s[$c] = $s[$c].wrapping_add($s[$d]);
        $s[$b] = ($s[$b] ^ $s[$c]).rotate_left(7);
    };
}

/// The block function: 20 rounds over `input`, plus the feed-forward,
/// serialized little-endian.
fn block(input: &[u32; 16]) -> [u8; 64] {
    let mut s = *input;
    for _ in 0..10 {
        quarter_round!(s, 0, 4, 8, 12);
        quarter_round!(s, 1, 5, 9, 13);
        quarter_round!(s, 2, 6, 10, 14);
        quarter_round!(s, 3, 7, 11, 15);
        quarter_round!(s, 0, 5, 10, 15);
        quarter_round!(s, 1, 6, 11, 12);
        quarter_round!(s, 2, 7, 8, 13);
        quarter_round!(s, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for ((bytes, word), add) in out.chunks_exact_mut(4).zip(s).zip(input) {
        bytes.copy_from_slice(&word.wrapping_add(*add).to_le_bytes());
    }
    out
}

/// XORs the keystream of (`key`, `nonce`) into `data`, 64 bytes per block,
/// the first block numbered `counter`.
///
/// # Panics
///
/// If the block counter would pass `u32::MAX` (more than 256 GiB under
/// one key and nonce): wrapping it would repeat keystream.
pub(crate) fn xor_keystream(key: &[u8; 32], nonce: &[u8; 12], counter: u32, data: &mut [u8]) {
    // constants ‖ key ‖ counter ‖ nonce, all little-endian words
    let word = |bytes: &[u8]| u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    for (slot, bytes) in state[4..12].iter_mut().zip(key.chunks_exact(4)) {
        *slot = word(bytes);
    }
    for (slot, bytes) in state[13..].iter_mut().zip(nonce.chunks_exact(4)) {
        *slot = word(bytes);
    }
    for (index, chunk) in data.chunks_mut(64).enumerate() {
        state[12] = u32::try_from(index)
            .ok()
            .and_then(|index| counter.checked_add(index))
            .expect("ChaCha20 block counter exhausted");
        for (byte, pad) in chunk.iter_mut().zip(block(&state)) {
            *byte ^= pad;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::Digest;

    // The expected values below are RFC 8439's own (and were cross-checked
    // against an independent implementation), never output of this module.

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn key() -> [u8; 32] {
        std::array::from_fn(|i| i as u8)
    }

    #[test]
    fn rfc8439_block_function_vector() {
        // §2.3.2: the keystream block is the cipher applied to zeros
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut out = [0u8; 64];
        xor_keystream(&key(), &nonce, 1, &mut out);
        assert_eq!(
            hex(&out),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc8439_encryption_vector() {
        // §2.4.2: 114 bytes, so one full block and a 50-byte tail
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut text = *b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        assert_eq!(text.len(), 114);
        let plain = text;
        xor_keystream(&key(), &nonce, 1, &mut text);
        assert_eq!(
            hex(&text),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
        );
        xor_keystream(&key(), &nonce, 1, &mut text);
        assert_eq!(text, plain, "the cipher is its own inverse");
    }

    #[test]
    fn sixteen_kib_keystream_vector() {
        let mut out = vec![0u8; 16_384];
        xor_keystream(&key(), &[0u8; 12], 0, &mut out);
        assert_eq!(hex(&out[..16]), "39fd2b7dd9c5196a8dbd0377b8dc4a49");
        assert_eq!(
            Digest::of(&out).to_hex(),
            "aaeea026b15285ee0655ae9f515a10acadf28d3f60f67584acf01c400ad349f2"
        );
    }

    #[test]
    #[should_panic(expected = "counter exhausted")]
    fn counter_never_wraps() {
        xor_keystream(&key(), &[0u8; 12], u32::MAX, &mut [0u8; 65]);
    }
}
