//! SHA-256, implemented from scratch (FIPS 180-4).
//!
//! The paper's prototype used MD5 \[34\] and RSA \[33\]; we substitute SHA-256
//! as the single hash primitive for digests, HMAC, and signature challenges.
//! (MD5 was already considered weak in 2002 and adds nothing structurally.)

/// A 256-bit digest.
///
/// # Examples
///
/// ```
/// use itdos_crypto::hash::Digest;
///
/// let d = Digest::of(b"abc");
/// assert_eq!(
///     d.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Hashes one byte slice.
    pub fn of(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finish()
    }

    /// Hashes the concatenation of several byte slices.
    pub fn of_parts(parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for part in parts {
            h.update(part);
        }
        h.finish()
    }

    /// Returns the digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex rendering.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Round constants, grouped by the four 16-round passes of [`compress`].
const K: [[u32; 16]; 4] = [
    [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174,
    ],
    [
        0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc,
        0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
        0x06ca6351, 0x14292967,
    ],
    [
        0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e,
        0x92722c85, 0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624,
        0xf40e3585, 0x106aa070,
    ],
    [
        0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
        0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb,
        0xbef9a3f7, 0xc67178f2,
    ],
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 state.
///
/// # Examples
///
/// ```
/// use itdos_crypto::hash::{Digest, Sha256};
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finish(), Digest::of(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hash state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length: 0,
        }
    }

    /// The chaining value after a whole number of absorbed blocks; pairs
    /// with [`Sha256::resume`] so a fixed prefix (an HMAC pad block) is
    /// compressed once and reused.
    pub(crate) fn midstate(&self) -> [u32; 8] {
        assert_eq!(self.buffered, 0, "midstate is only defined block-aligned");
        self.state
    }

    /// Resumes from a [`Sha256::midstate`] taken after `absorbed` bytes.
    pub(crate) fn resume(state: [u32; 8], absorbed: u64) -> Self {
        Sha256 {
            state,
            buffer: [0u8; 64],
            buffered: 0,
            length: absorbed,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let take = rest.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("64-byte block"));
        }
        let tail = blocks.remainder();
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Finalizes and returns the digest, consuming buffered input.
    pub fn finish(mut self) -> Digest {
        // `0x80 ‖ zeros ‖ bit length`, written straight into the buffered
        // block; the length field needs 8 bytes, so a block already holding
        // more than 55 spills the padding into a second one.
        let bit_len = self.length.wrapping_mul(8);
        self.buffer[self.buffered] = 0x80;
        self.buffer[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            compress(&mut self.state, &self.buffer);
            self.buffer = [0u8; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// One round. The caller rotates the eight working variables through the
/// argument list instead of shuffling them, so only `d` and `h` are written.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add($g ^ ($e & ($f ^ $g)))
            .wrapping_add($kw);
        let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) | ($c & ($a | $b)));
        $d = $d.wrapping_add(t1);
        $h = t1.wrapping_add(t2);
    };
}

/// Sixteen rounds over schedule words `w[0..16]` with constants `k`.
macro_rules! rounds16 {
    ($s:ident, $k:expr, $w:ident) => {
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = $s;
        round!(a, b, c, d, e, f, g, h, $k[0].wrapping_add($w[0]));
        round!(h, a, b, c, d, e, f, g, $k[1].wrapping_add($w[1]));
        round!(g, h, a, b, c, d, e, f, $k[2].wrapping_add($w[2]));
        round!(f, g, h, a, b, c, d, e, $k[3].wrapping_add($w[3]));
        round!(e, f, g, h, a, b, c, d, $k[4].wrapping_add($w[4]));
        round!(d, e, f, g, h, a, b, c, $k[5].wrapping_add($w[5]));
        round!(c, d, e, f, g, h, a, b, $k[6].wrapping_add($w[6]));
        round!(b, c, d, e, f, g, h, a, $k[7].wrapping_add($w[7]));
        round!(a, b, c, d, e, f, g, h, $k[8].wrapping_add($w[8]));
        round!(h, a, b, c, d, e, f, g, $k[9].wrapping_add($w[9]));
        round!(g, h, a, b, c, d, e, f, $k[10].wrapping_add($w[10]));
        round!(f, g, h, a, b, c, d, e, $k[11].wrapping_add($w[11]));
        round!(e, f, g, h, a, b, c, d, $k[12].wrapping_add($w[12]));
        round!(d, e, f, g, h, a, b, c, $k[13].wrapping_add($w[13]));
        round!(c, d, e, f, g, h, a, b, $k[14].wrapping_add($w[14]));
        round!(b, c, d, e, f, g, h, a, $k[15].wrapping_add($w[15]));
        $s = [a, b, c, d, e, f, g, h];
    };
}

/// Advances the 16-word rolling schedule by one word in place:
/// `w[t] += σ0(w[t+1]) + w[t+9] + σ1(w[t+14])`, indices mod 16.
macro_rules! schedule {
    ($w:ident, $($t:literal)+) => {$(
        let w15 = $w[($t + 1) % 16];
        let w2 = $w[($t + 14) % 16];
        $w[$t] = $w[$t]
            .wrapping_add(w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3))
            .wrapping_add($w[($t + 9) % 16])
            .wrapping_add(w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10));
    )+};
}

/// The SHA-256 compression function: 64 unrolled rounds over a 16-word
/// rolling message schedule. Every array index is a constant, so no bounds
/// check survives; the outputs are those of the textbook form kept as the
/// test reference below.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(test)]
    COMPRESSIONS.with(|count| count.set(count.get() + 1));
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("4 bytes"));
    }
    let mut s = *state;
    rounds16!(s, K[0], w);
    for k in &K[1..] {
        schedule!(w, 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
        rounds16!(s, k, w);
    }
    for (word, add) in state.iter_mut().zip(s) {
        *word = word.wrapping_add(add);
    }
}

#[cfg(test)]
thread_local! {
    /// Calls to [`compress`] made by the current test thread.
    static COMPRESSIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// This thread's running [`compress`] count (test builds only): the unit
/// tests of `mac`, `symmetric` and `sign` take differences of it to pin how
/// many passes a construction makes over its input.
#[cfg(test)]
pub(crate) fn compressions() -> u64 {
    COMPRESSIONS.with(std::cell::Cell::get)
}

/// The straightforward FIPS 180-4 transcription this module shipped before
/// the kernel was tuned: a 64-word schedule, a 64-iteration round loop and
/// byte-at-a-time padding. Kept as the oracle the tuned code is compared to.
#[cfg(test)]
mod reference {
    use super::{Digest, H0, K};

    pub struct Sha256 {
        state: [u32; 8],
        buffer: Vec<u8>,
        length: u64,
    }

    impl Sha256 {
        pub fn new() -> Self {
            Sha256 {
                state: H0,
                buffer: Vec::new(),
                length: 0,
            }
        }

        pub fn update(&mut self, data: &[u8]) {
            self.length += data.len() as u64;
            for &byte in data {
                self.push(byte);
            }
        }

        fn push(&mut self, byte: u8) {
            self.buffer.push(byte);
            if self.buffer.len() == 64 {
                let block: [u8; 64] = self.buffer[..].try_into().expect("64-byte block");
                self.compress(&block);
                self.buffer.clear();
            }
        }

        pub fn finish(mut self) -> Digest {
            let bit_len = self.length * 8;
            self.push(0x80);
            while self.buffer.len() != 56 {
                self.push(0);
            }
            for byte in bit_len.to_be_bytes() {
                self.push(byte);
            }
            assert!(self.buffer.is_empty());
            let mut out = [0u8; 32];
            for (i, word) in self.state.iter().enumerate() {
                out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
            }
            Digest(out)
        }

        fn compress(&mut self, block: &[u8; 64]) {
            let mut w = [0u32; 64];
            for (i, chunk) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let t1 = h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i / 16][i % 16])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let t2 = s0.wrapping_add(maj);
                h = g;
                g = f;
                f = e;
                e = d.wrapping_add(t1);
                d = c;
                c = b;
                b = a;
                a = t1.wrapping_add(t2);
            }
            for (word, add) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *word = word.wrapping_add(add);
            }
        }
    }

    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrand::rngs::SmallRng;
    use xrand::{Rng, SeedableRng};

    // FIPS 180-4 / NIST test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            Digest::of(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            Digest::of(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            Digest::of(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            Digest::of(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), Digest::of(&data), "split at {split}");
        }
    }

    #[test]
    fn of_parts_equals_concatenation() {
        assert_eq!(Digest::of_parts(&[b"ab", b"c"]), Digest::of(b"abc"));
        assert_eq!(Digest::of_parts(&[]), Digest::of(b""));
    }

    #[test]
    fn matches_reference_on_random_inputs_and_chunkings() {
        for case in 0..512u64 {
            let mut rng = SmallRng::seed_from_u64(0x5A_256 ^ case.wrapping_mul(0x9E37_79B9));
            let mut data = vec![0u8; rng.gen_range(0..=300usize)];
            rng.fill(&mut data[..]);
            let expect = reference::digest(&data);
            assert_eq!(Digest::of(&data), expect, "case {case} one-shot");
            let mut h = Sha256::new();
            let mut rest = &data[..];
            while !rest.is_empty() {
                let (chunk, tail) = rest.split_at(rng.gen_range(0..=rest.len().min(130)));
                h.update(chunk);
                rest = tail;
            }
            assert_eq!(h.finish(), expect, "case {case} chunked");
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // 55 is the longest tail that pads within its block, 56..=63 spill
        // into a second, 64 leaves an empty buffer; 119/120 repeat the edge
        // one block later
        for len in (50..70usize).chain(115..125) {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let expect = reference::digest(&data);
            assert_eq!(Digest::of(&data), expect, "len {len} one-shot");
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finish(), expect, "len {len} byte-at-a-time");
        }
    }

    #[test]
    fn resumed_midstate_continues_the_stream() {
        let data: Vec<u8> = (0..200u8).collect();
        for blocks in [1usize, 2, 3] {
            let mut prefix = Sha256::new();
            prefix.update(&data[..blocks * 64]);
            let mut h = Sha256::resume(prefix.midstate(), (blocks * 64) as u64);
            h.update(&data[blocks * 64..]);
            assert_eq!(h.finish(), Digest::of(&data), "{blocks} blocks");
        }
    }
}
