//! SHA-256, implemented from the FIPS 180-4 specification.
//!
//! The stage cache addresses stage outputs by a digest of their canonical
//! inputs, and the build environment has no crates registry, so the hash
//! lives here rather than behind an external dependency.
//!
//! It is a plain scalar implementation: `flow.digest_mb_per_s` reads
//! 115–240 MB/s on the 2-core benchmark host, depending on what else
//! runs. Keys digest whole request sources — an 89 KB BLIF is 0.4–0.7 ms
//! per pass — so a caller that needs several digests over one long
//! prefix absorbs the prefix once and clones the state ([`Sha256`] is
//! `Clone` for that) instead of starting over.
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

    pub fn update(&mut self, mut data: &[u8]) -> &mut Self {
        self.total_len += data.len() as u64;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
            // Fully absorbed into the partial buffer: stop before the
            // tail write below would clobber buf_len.
            if data.is_empty() {
                return self;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            self.compress(block.try_into().expect("64-byte block"));
            data = rest;
        }
        self.buf[..data.len()].copy_from_slice(data);
        self.buf_len = data.len();
        self
    }

    /// Absorb one part the way [`digest_hex`] frames it: length-prefixed,
    /// so concatenation ambiguity cannot alias two different part lists.
    pub fn update_part(&mut self, part: &[u8]) -> &mut Self {
        self.update(&(part.len() as u64).to_le_bytes());
        self.update(part)
    }

    pub fn finish(mut self) -> [u8; 32] {
        let bit_len = self.total_len * 8;
        // Append 0x80, pad with zeros to 56 mod 64, then the bit length.
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // The length bytes complete the final block; update() compresses it.
        self.total_len = 0; // already accounted for
        self.update(&bit_len.to_be_bytes());
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
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
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
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

/// Lowercase hex: digests, and artifact / bitstream bytes on the wire.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(HEX_DIGITS[usize::from(b >> 4)] as char);
        s.push(HEX_DIGITS[usize::from(b & 0xf)] as char);
    }
    s
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

/// Inverse of [`to_hex`]: exactly pairs of `[0-9a-fA-F]`. The input is a
/// peer's (`artifact_put.data_hex`, a gateway's `artifact` reply), so
/// anything else — a sign, a non-ASCII character — is an `Err`, never a
/// panic.
pub fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex".to_string());
    }
    let mut bytes = Vec::with_capacity(s.len() / 2);
    for (i, pair) in s.as_bytes().chunks_exact(2).enumerate() {
        let (hi, lo) = (NIBBLE[usize::from(pair[0])], NIBBLE[usize::from(pair[1])]);
        if hi | lo > 0xf {
            return Err(format!("bad hex at {}", 2 * i));
        }
        bytes.push(hi << 4 | lo);
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

    #[test]
    fn length_prefixing_prevents_aliasing() {
        assert_ne!(digest_hex(&[b"ab", b"c"]), digest_hex(&[b"a", b"bc"]));
        assert_ne!(digest_hex(&[b"abc"]), digest_hex(&[b"abc", b""]));
    }
}
