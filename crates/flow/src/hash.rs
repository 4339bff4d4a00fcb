//! SHA-256, implemented from the FIPS 180-4 specification.
//!
//! The stage cache addresses stage outputs by a digest of their canonical
//! inputs, and the build environment has no crates registry, so the hash
//! lives here rather than behind an external dependency.
//!
//! Compression runs on the x86 SHA extensions where the CPU has them
//! (`sha` and `sse4.1`, detected at run time), and on the scalar FIPS
//! loop everywhere else; the tests hold the two equal. On the 2-core
//! benchmark host `flow.digest_mb_per_s` reads 830–965 MB/s with the
//! kernel, where the scalar loop read 115–240 MB/s. Keys digest whole
//! request sources — `mult16`'s BLIF is ≈ 0.11 ms per pass — so a caller
//! that needs several digests over one long prefix absorbs the prefix
//! once and clones the state ([`Sha256`] is `Clone` for that) instead
//! of starting over.
//!
//! The hex codec the digests are written in lives here too
//! ([`to_hex`] / [`from_hex`]); the server's wire payloads use the same
//! pair.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 state.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partial input block awaiting the next 64-byte boundary.
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    pub fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.absorb(data, compress)
    }

    /// Absorb one part the way [`digest_hex`] frames it: length-prefixed,
    /// so concatenation ambiguity cannot alias two different part lists.
    pub fn update_part(&mut self, part: &[u8]) -> &mut Self {
        self.update(&(part.len() as u64).to_le_bytes());
        self.update(part)
    }

    pub fn finish(self) -> [u8; 32] {
        self.finish_with(compress)
    }

    fn absorb(&mut self, mut data: &[u8], kernel: Kernel) -> &mut Self {
        self.total_len += data.len() as u64;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                kernel(&mut self.state, &[self.buf]);
                self.buf_len = 0;
            }
            // Fully absorbed into the partial buffer: stop before the
            // tail write below would clobber buf_len.
            if data.is_empty() {
                return self;
            }
        }
        let (blocks, tail) = data.as_chunks::<64>();
        kernel(&mut self.state, blocks);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
        self
    }

    fn finish_with(mut self, kernel: Kernel) -> [u8; 32] {
        let bit_len = self.total_len * 8;
        // Append 0x80, pad with zeros to 56 mod 64, then the bit length;
        // the length bytes complete the final block.
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        let zeros = (119 - self.buf_len) % 64;
        pad[1 + zeros..9 + zeros].copy_from_slice(&bit_len.to_be_bytes());
        self.absorb(&pad[..9 + zeros], kernel);
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// A compression function: folds whole blocks into the state, in order.
type Kernel = fn(&mut [u32; 8], &[[u8; 64]]);

/// The compression function this CPU runs: the SHA-extension kernel
/// where the CPU has it, the scalar loop everywhere else.
fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::available() {
        // SAFETY: `available` checked every feature the kernel enables.
        return unsafe { sha_ni::compress(state, blocks) };
    }
    compress_scalar(state, blocks)
}

/// The FIPS 180-4 compression function, one block at a time.
fn compress_scalar(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (i, word) in block.as_chunks::<4>().0.iter().enumerate() {
            w[i] = u32::from_be_bytes(*word);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
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
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The compression function on the x86 SHA extensions: each
/// `sha256rnds2` runs two rounds, `sha256msg1`/`sha256msg2` extend the
/// message schedule four words at a time. Written with value-only
/// intrinsics (no pointer loads or stores), so the kernel body is safe
/// code and the one call into it sits behind the feature check.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use std::arch::x86_64::*;

    use super::K;

    /// The CPU has every feature [`compress`] enables.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1")
    }

    /// Four rounds: `msg` (words `4i..4i+4`) plus their constants, two
    /// rounds per `sha256rnds2`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, msg: __m128i, i: usize) {
        let k = |j: usize| K[4 * i + j] as i32;
        let wk = _mm_add_epi32(msg, _mm_set_epi32(k(3), k(2), k(1), k(0)));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0e>(wk));
    }

    /// The next four schedule words from the last sixteen (`w0` oldest).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Fold `blocks` into `state`. Calling it needs the features it
    /// enables: check [`available`] first.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        let s = state.map(|x| x as i32);
        // The round instructions keep the state as two lanes-of-four,
        // high lane first: (a, b, e, f) and (c, d, g, h).
        let mut abef = _mm_set_epi32(s[0], s[1], s[4], s[5]);
        let mut cdgh = _mm_set_epi32(s[2], s[3], s[6], s[7]);
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let words = block.as_chunks::<4>().0;
            let group = |g: usize| {
                let w = |j: usize| i32::from_be_bytes(words[4 * g + j]);
                _mm_set_epi32(w(3), w(2), w(1), w(0))
            };
            let mut w = [group(0), group(1), group(2), group(3)];
            for (i, &msg) in w.iter().enumerate() {
                rounds4(&mut abef, &mut cdgh, msg, i);
            }
            for i in 4..16 {
                let next = schedule(w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                w[i % 4] = next;
                rounds4(&mut abef, &mut cdgh, next, i);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let lanes = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ];
        *state = lanes.map(|x| x as u32);
    }
}

/// Digest `parts`, each framed by [`Sha256::update_part`], and return
/// lowercase hex.
pub fn digest_hex(parts: &[&[u8]]) -> String {
    let mut h = Sha256::new();
    for p in parts {
        h.update_part(p);
    }
    to_hex(&h.finish())
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Each byte's two lowercase hex digits.
const HEX_PAIRS: [[u8; 2]; 256] = {
    let mut table = [[0; 2]; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = [HEX_DIGITS[i >> 4], HEX_DIGITS[i & 0xf]];
        i += 1;
    }
    table
};

/// Lowercase hex: digests, and artifact / bitstream bytes on the wire.
/// One table lookup per byte fills a buffer sized up front.
pub fn to_hex(bytes: &[u8]) -> String {
    let pairs: Vec<[u8; 2]> = bytes.iter().map(|&b| HEX_PAIRS[usize::from(b)]).collect();
    // Every pair is two ASCII digits, so the conversion cannot fail; the
    // default is there only to keep this function free of a panic path.
    String::from_utf8(pairs.into_flattened()).unwrap_or_default()
}

/// Hex digit value by byte, either case; `0xff` for every byte that is
/// not `[0-9a-fA-F]`.
const NIBBLE: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        table[HEX_DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

/// A hex pair's two digit values; either is above 0xf if it is bad.
fn nibbles([hi, lo]: [u8; 2]) -> (u8, u8) {
    (NIBBLE[usize::from(hi)], NIBBLE[usize::from(lo)])
}

/// Inverse of [`to_hex`]: exactly pairs of `[0-9a-fA-F]`. The input is a
/// peer's (`artifact_put.data_hex`, a `done` event's `bitstream_hex`), so
/// anything else — a sign, a non-ASCII character — is an `Err`, never a
/// panic. Every pair is decoded into a buffer sized up front, and a bad
/// digit only sets a flag; an input with one is searched again for the
/// offset of its first bad pair.
pub fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex".to_string());
    }
    let pairs = s.as_bytes().as_chunks::<2>().0;
    let mut bad = 0u8;
    let bytes: Vec<u8> = pairs
        .iter()
        .map(|&pair| {
            let (hi, lo) = nibbles(pair);
            bad |= hi | lo;
            hi << 4 | lo
        })
        .collect();
    if bad > 0xf {
        let first = pairs.iter().position(|&p| {
            let (hi, lo) = nibbles(p);
            hi | lo > 0xf
        });
        return Err(format!("bad hex at {}", 2 * first.unwrap_or(0)));
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sha(data: &[u8]) -> String {
        let mut h = Sha256::new();
        h.update(data);
        to_hex(&h.finish())
    }

    #[test]
    fn fips_180_4_vectors() {
        assert_eq!(
            sha(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        for _ in 0..1000 {
            h.update(&[b'a'; 1000]);
        }
        assert_eq!(
            to_hex(&h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn chunked_updates_match_one_shot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        let one = sha(&data);
        let mut h = Sha256::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(to_hex(&h.finish()), one);
    }

    /// The dispatched compression function (the SHA-extension kernel
    /// where the CPU has it) against the scalar loop: every length up to
    /// 300 bytes, fed in chunks that straddle block boundaries, plus the
    /// FIPS vectors and a million `a`.
    #[test]
    fn kernel_matches_the_scalar_loop() {
        #[cfg(target_arch = "x86_64")]
        let kernel = sha_ni::available();
        #[cfg(not(target_arch = "x86_64"))]
        let kernel = false;
        if !kernel {
            eprintln!("no SHA extensions on this CPU: only the scalar loop ran");
        }
        let scalar = |data: &[u8], chunk: usize| {
            let mut h = Sha256::new();
            for part in data.chunks(chunk) {
                h.absorb(part, compress_scalar);
            }
            to_hex(&h.finish_with(compress_scalar))
        };
        let dispatched = |data: &[u8], chunk: usize| {
            let mut h = Sha256::new();
            for part in data.chunks(chunk) {
                h.update(part);
            }
            to_hex(&h.finish())
        };
        let data: Vec<u8> = (0..300u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in 0..=300 {
            let want = scalar(&data[..len], len.max(1));
            for chunk in [1, 7, 64, 65] {
                assert_eq!(
                    dispatched(&data[..len], chunk),
                    want,
                    "len {len} chunk {chunk}"
                );
                assert_eq!(scalar(&data[..len], chunk), want, "len {len} chunk {chunk}");
            }
        }
        let vectors: [(&[u8], &str); 3] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (data, want) in vectors {
            assert_eq!(scalar(data, 64), want);
            assert_eq!(dispatched(data, 64), want);
        }
        let million = vec![b'a'; 1_000_000];
        let want = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        assert_eq!(scalar(&million, 1000), want);
        assert_eq!(dispatched(&million, 1000), want);
    }

    #[test]
    fn length_prefixing_prevents_aliasing() {
        assert_ne!(digest_hex(&[b"ab", b"c"]), digest_hex(&[b"a", b"bc"]));
        assert_ne!(digest_hex(&[b"abc"]), digest_hex(&[b"abc", b""]));
    }
}
