//! The ChaCha20 stream cipher (RFC 8439 variant: 32-byte key, 12-byte nonce,
//! 32-bit block counter).
//!
//! ChaCha20 serves as the workhorse PRG of this reproduction, standing in
//! for the AES-CTR PRG the paper uses for share compression (Appendix I).

/// Number of bytes produced per ChaCha20 block.
pub const BLOCK_LEN: usize = 64;

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Applies the ChaCha quarter-round to four state words.
#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Runs the 20-round ChaCha permutation (10 double rounds) in place,
/// *without* the final feed-forward addition. Exposed for the sponge hash.
pub fn permute(state: &mut [u32; 16]) {
    for _ in 0..10 {
        // Column rounds.
        quarter_round(state, 0, 4, 8, 12);
        quarter_round(state, 1, 5, 9, 13);
        quarter_round(state, 2, 6, 10, 14);
        quarter_round(state, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(state, 0, 5, 10, 15);
        quarter_round(state, 1, 6, 11, 12);
        quarter_round(state, 2, 7, 8, 13);
        quarter_round(state, 3, 4, 9, 14);
    }
}

/// The 16-word input state for `(key, counter, nonce)`: constants, key
/// words, block counter (word 12), nonce words.
fn input_state(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&CONSTANTS);
    for (word, bytes) in state[4..12].iter_mut().zip(key.chunks_exact(4)) {
        *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    state[12] = counter;
    for (word, bytes) in state[13..].iter_mut().zip(nonce.chunks_exact(4)) {
        *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    state
}

/// Writes the keystream block of input state `input` into the 64 bytes of
/// `out`: the permutation plus the feed-forward addition.
#[inline]
fn keystream_block(input: &[u32; 16], out: &mut [u8]) {
    let mut state = *input;
    permute(&mut state);
    for ((bytes, word), init) in out.chunks_exact_mut(4).zip(state).zip(input) {
        bytes.copy_from_slice(&word.wrapping_add(*init).to_le_bytes());
    }
}

/// Computes one 64-byte ChaCha20 keystream block.
pub fn block(key: &[u8; 32], counter: u32, nonce: &[u8; 12], out: &mut [u8; BLOCK_LEN]) {
    keystream_block(&input_state(key, counter, nonce), out);
}

/// Writes the block at `state`'s counter into `out` and steps the counter.
///
/// # Panics
/// Panics if the 32-bit block counter would wrap (after 256 GiB).
#[inline]
fn next_block(state: &mut [u32; 16], out: &mut [u8]) {
    keystream_block(state, out);
    state[12] = state[12]
        .checked_add(1)
        .expect("ChaCha20 block counter exhausted");
}

/// An incremental ChaCha20 keystream generator / stream cipher.
#[derive(Clone)]
pub struct ChaCha20 {
    /// The input state of the next block; key and nonce are parsed into
    /// words once, at construction.
    state: [u32; 16],
    buf: [u8; BLOCK_LEN],
    /// Bytes of `buf` already consumed.
    used: usize,
}

impl ChaCha20 {
    /// Creates a keystream starting at block counter `counter`.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> Self {
        ChaCha20 {
            state: input_state(key, counter, nonce),
            buf: [0; BLOCK_LEN],
            used: BLOCK_LEN,
        }
    }

    /// Fills `out` with keystream bytes.
    ///
    /// Serves what is left of the buffered block first, then writes whole
    /// blocks straight into `out`, and buffers only the last partial block.
    /// The stream is the same however a read is split into calls.
    ///
    /// # Panics
    /// Panics if the 32-bit block counter would wrap (after 256 GiB).
    pub fn fill(&mut self, out: &mut [u8]) {
        let take = (BLOCK_LEN - self.used).min(out.len());
        let (head, rest) = out.split_at_mut(take);
        head.copy_from_slice(&self.buf[self.used..self.used + take]);
        self.used += take;
        let mut blocks = rest.chunks_exact_mut(BLOCK_LEN);
        for block in &mut blocks {
            next_block(&mut self.state, block);
        }
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            next_block(&mut self.state, &mut self.buf);
            tail.copy_from_slice(&self.buf[..tail.len()]);
            self.used = tail.len();
        }
    }

    /// XORs the keystream into `data` (encryption == decryption).
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        let mut ks = vec![0u8; data.len()];
        self.fill(&mut ks);
        for (d, k) in data.iter_mut().zip(ks) {
            *d ^= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 8439 §2.3.2 test vector.
    #[test]
    fn rfc8439_block_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce = [0, 0, 0, 0x09, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut out = [0u8; 64];
        block(&key, 1, &nonce, &mut out);
        let expect: [u8; 64] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a,
            0xc3, 0xd4, 0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2,
            0xd7, 0x05, 0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9,
            0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e,
        ];
        assert_eq!(out, expect);
    }

    /// RFC 8439 §2.4.2 encryption test vector (first 16 bytes).
    #[test]
    fn rfc8439_encrypt_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut data = *b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let mut cipher = ChaCha20::new(&key, &nonce, 1);
        cipher.apply_keystream(&mut data);
        assert_eq!(
            &data[..16],
            &[
                0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd,
                0x0d, 0x69, 0x81
            ]
        );
    }

    #[test]
    fn stream_is_deterministic_and_incremental() {
        let key = [7u8; 32];
        let nonce = [3u8; 12];
        let mut a = ChaCha20::new(&key, &nonce, 0);
        let mut b = ChaCha20::new(&key, &nonce, 0);
        let mut buf_a = [0u8; 300];
        a.fill(&mut buf_a);
        // Read the same 300 bytes in odd-sized chunks.
        let mut buf_b = [0u8; 300];
        let mut off = 0;
        for chunk in [1usize, 63, 64, 65, 107] {
            b.fill(&mut buf_b[off..off + chunk]);
            off += chunk;
        }
        assert_eq!(off, 300);
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let key = [9u8; 32];
        let nonce = [1u8; 12];
        let msg = b"attack at dawn".to_vec();
        let mut data = msg.clone();
        ChaCha20::new(&key, &nonce, 1).apply_keystream(&mut data);
        assert_ne!(data, msg);
        ChaCha20::new(&key, &nonce, 1).apply_keystream(&mut data);
        assert_eq!(data, msg);
    }

    #[test]
    fn different_keys_differ() {
        let nonce = [0u8; 12];
        let mut o1 = [0u8; 64];
        let mut o2 = [0u8; 64];
        block(&[1u8; 32], 0, &nonce, &mut o1);
        block(&[2u8; 32], 0, &nonce, &mut o2);
        assert_ne!(o1, o2);
    }
}
