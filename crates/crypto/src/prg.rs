//! A seeded PRG for share compression (Appendix I of the paper).
//!
//! The naive way to split a length-`L` vector into `s` additive shares
//! costs `s·L` field elements of upload. The paper's optimization replaces
//! the first `s − 1` shares with 32-byte PRG seeds: share `i` is the
//! deterministic expansion `PRG(seed_i)`, and only the last share is sent
//! explicitly, cutting the upload to `L + O(1)` elements. [`Prg`] is that
//! expander, built on ChaCha20, with field-element output via rejection
//! sampling so the shares are uniform in `F_p`.
//!
//! # The stream is the contract
//!
//! Field element `k` of an expansion is the `k`-th `ENCODED_LEN`-byte
//! block of the ChaCha20 keystream that reads as a canonical residue;
//! blocks that encode a value `>= p` are skipped. [`Prg::next_field`] draws
//! one element that way. [`Prg::fill_field_slice`] draws many in bulk: each
//! pass pulls exactly `remaining · ENCODED_LEN` keystream bytes (capped by a
//! stack buffer), keeps the survivors in order, and repeats for the elements
//! rejections left missing. A pass never reads past what sequential
//! `next_field` calls would have consumed, so the two paths yield the same
//! elements and leave the stream at the same offset: any interleaving of
//! bulk draws, `next_field` and [`Prg::fill_bytes`] is bit-identical to the
//! one-element-at-a-time reading. Seeds on the wire, fault plans and
//! replayed schedules all depend on that. The speed comes from consuming
//! the same ChaCha20 stream in whole blocks, never from a cheaper
//! generator.

use crate::chacha::ChaCha20;
use prio_field::FieldElement;

/// Length of a PRG seed in bytes.
pub const SEED_LEN: usize = 32;

/// Keystream bytes one bulk pass may pull: 64 ChaCha20 blocks.
const PASS_BYTES: usize = 4096;

/// A PRG seed: the compressed representation of a share vector.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Seed(pub [u8; SEED_LEN]);

impl Seed {
    /// Samples a fresh random seed.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; SEED_LEN];
        rng.fill_bytes(&mut bytes);
        Seed(bytes)
    }
}

/// A deterministic pseudo-random generator expanding a [`Seed`] into bytes
/// and field elements.
#[derive(Clone)]
pub struct Prg {
    stream: ChaCha20,
}

impl Prg {
    /// Creates a PRG from a seed with a domain-separation label; the same
    /// `(seed, label)` pair always yields the same stream. Distinct labels
    /// (e.g. per-share indices) yield independent streams.
    pub fn new(seed: &Seed, label: u64) -> Self {
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&label.to_le_bytes());
        Prg {
            stream: ChaCha20::new(&seed.0, &nonce, 0),
        }
    }

    /// Fills `out` with pseudo-random bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        self.stream.fill(out);
    }

    /// Produces the next uniform field element by rejection sampling.
    pub fn next_field<F: FieldElement>(&mut self) -> F {
        let result: Result<F, std::convert::Infallible> = F::from_byte_source(|buf| {
            self.fill_bytes(buf);
            Ok(())
        });
        match result {
            Ok(x) => x,
            Err(e) => match e {},
        }
    }

    /// Fills `out` with the next `out.len()` uniform field elements — the
    /// same elements, in the same order, as that many [`Prg::next_field`]
    /// calls, and leaving the stream at the same offset (see the module
    /// docs).
    pub fn fill_field_slice<F: FieldElement>(&mut self, out: &mut [F]) {
        self.draw_fields(out.len(), |i, x| out[i] = x);
    }

    /// Draws the next `n` uniform field elements in bulk passes, handing
    /// each to `sink` with its index.
    fn draw_fields<F: FieldElement>(&mut self, n: usize, mut sink: impl FnMut(usize, F)) {
        let mut bytes = [0u8; PASS_BYTES];
        let per_pass = PASS_BYTES / F::ENCODED_LEN;
        let mut drawn = 0;
        while drawn < n {
            // One candidate block per missing element: even if every one
            // survives, sequential draws would have read all of them.
            let want = (n - drawn).min(per_pass);
            let pass = &mut bytes[..want * F::ENCODED_LEN];
            self.stream.fill(pass);
            for candidate in pass.chunks_exact(F::ENCODED_LEN) {
                if let Some(x) = F::read_le_bytes(candidate) {
                    sink(drawn, x);
                    drawn += 1;
                }
            }
        }
    }

    /// Expands the seed into a length-`n` vector of uniform field elements —
    /// the PRG-compressed share vector of Appendix I.
    pub fn expand_field_vec<F: FieldElement>(&mut self, n: usize) -> Vec<F> {
        let mut v = vec![F::zero(); n];
        self.fill_field_slice(&mut v);
        v
    }

    /// Subtracts the next `xs.len()` stream elements from `xs` in place:
    /// one PRG-compressed share peeled off the residual, with no vector per
    /// seed. After `xs -= expansion(seed)`, the seed and the residual are
    /// two additive shares of the old `xs`.
    pub fn subtract_from<F: FieldElement>(&mut self, xs: &mut [F]) {
        self.draw_fields(xs.len(), |i, e: F| xs[i] -= e);
    }
}

/// An [`rand::RngCore`] adapter over the ChaCha20 [`Prg`], so code written
/// against the workspace's `rand` traits can draw *cryptographic*
/// randomness.
///
/// The `rand` shim's `StdRng` is test-grade xoshiro256** — fine for test
/// inputs and client-side share blinding in benchmarks, but never for
/// protocol randomness. Production paths (the servers' shared verification
/// randomness, any multi-process node) construct a `PrgRng` from a seed
/// instead; same call sites, ChaCha20 underneath.
pub struct PrgRng(Prg);

impl PrgRng {
    /// Wraps a PRG stream.
    pub fn new(seed: &Seed, label: u64) -> Self {
        PrgRng(Prg::new(seed, label))
    }

    /// Derives a generator from a bare `u64` seed under a domain-separation
    /// label. The seed is placed in the first 8 bytes of a zero key — the
    /// label keeps distinct uses of the same `u64` independent.
    pub fn from_u64_seed(seed: u64, label: u64) -> Self {
        let mut key = [0u8; SEED_LEN];
        key[..8].copy_from_slice(&seed.to_le_bytes());
        PrgRng(Prg::new(&Seed(key), label))
    }
}

impl rand::RngCore for PrgRng {
    fn next_u64(&mut self) -> u64 {
        let mut buf = [0u8; 8];
        self.0.fill_bytes(&mut buf);
        u64::from_le_bytes(buf)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest);
    }
}

/// Expands one PRG share back into its vector form.
pub fn expand_share<F: FieldElement>(seed: &Seed, label: u64, n: usize) -> Vec<F> {
    Prg::new(seed, label).expand_field_vec(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_field::{Field128, Field64};
    use rand::SeedableRng;

    #[test]
    fn deterministic_expansion() {
        let seed = Seed([42u8; 32]);
        let a: Vec<Field64> = Prg::new(&seed, 0).expand_field_vec(100);
        let b: Vec<Field64> = Prg::new(&seed, 0).expand_field_vec(100);
        assert_eq!(a, b);
    }

    #[test]
    fn labels_are_independent() {
        let seed = Seed([42u8; 32]);
        let a: Vec<Field64> = Prg::new(&seed, 0).expand_field_vec(8);
        let b: Vec<Field64> = Prg::new(&seed, 1).expand_field_vec(8);
        assert_ne!(a, b);
    }

    /// Splits `xs` into `n` shares: `n − 1` seeds and the explicit residual.
    fn share_with_seeds<F: FieldElement>(
        xs: &[F],
        n: usize,
        label: u64,
        rng: &mut rand::rngs::StdRng,
    ) -> (Vec<Seed>, Vec<F>) {
        let mut residual = xs.to_vec();
        let seeds: Vec<Seed> = (1..n)
            .map(|_| {
                let seed = Seed::random(rng);
                Prg::new(&seed, label).subtract_from(&mut residual);
                seed
            })
            .collect();
        (seeds, residual)
    }

    #[test]
    fn prg_shares_reconstruct() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let xs: Vec<Field128> = (0..50).map(|_| Field128::random(&mut rng)).collect();
        for n in 1..=5 {
            let (seeds, residual) = share_with_seeds(&xs, n, 7, &mut rng);
            assert_eq!(seeds.len(), n - 1);
            let mut sum = residual.clone();
            for seed in &seeds {
                let expanded: Vec<Field128> = expand_share(seed, 7, xs.len());
                for (s, e) in sum.iter_mut().zip(expanded) {
                    *s += e;
                }
            }
            assert_eq!(sum, xs, "n = {n}");
        }
    }

    #[test]
    fn rejection_sampling_is_uniform_smoke() {
        // Mean of many samples should be near p/2.
        let seed = Seed([7u8; 32]);
        let mut prg = Prg::new(&seed, 0);
        let n = 4096u64;
        let mut acc: u128 = 0;
        for _ in 0..n {
            acc += prg.next_field::<Field64>().as_u64() as u128;
        }
        let mean = acc / n as u128;
        let p = prio_field::field64::MODULUS as u128;
        assert!(mean > p / 4 && mean < 3 * p / 4);
    }

    #[test]
    fn prg_rng_is_deterministic_and_chacha_backed() {
        use prio_field::FieldElement as _;
        use rand::Rng;
        let mut a = PrgRng::from_u64_seed(7, 1);
        let mut b = PrgRng::from_u64_seed(7, 1);
        let xs: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_eq!(xs, ys);
        // Different labels diverge; and the stream is exactly the raw PRG's
        // (the adapter adds no buffering or state of its own).
        let mut c = PrgRng::from_u64_seed(7, 2);
        assert_ne!(xs[0], c.random::<u64>());
        let mut key = [0u8; SEED_LEN];
        key[..8].copy_from_slice(&7u64.to_le_bytes());
        let mut raw = Prg::new(&Seed(key), 1);
        let mut buf = [0u8; 8];
        raw.fill_bytes(&mut buf);
        assert_eq!(xs[0], u64::from_le_bytes(buf));
        // A field element drawn through the adapter equals one drawn from
        // the raw PRG stream (the rejection-sampling path lines up).
        let via_rng: Field64 = Field64::random(&mut PrgRng::from_u64_seed(9, 0));
        let via_prg: Field64 = PrgRng::from_u64_seed(9, 0).0.next_field();
        assert_eq!(via_rng, via_prg);
    }

    #[test]
    fn upload_size_is_compressed() {
        // The whole point: n-1 seeds of 32 bytes + one explicit vector,
        // instead of n explicit vectors.
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let xs: Vec<Field64> = (0..1000).map(|_| Field64::random(&mut rng)).collect();
        let (seeds, residual) = share_with_seeds(&xs, 5, 0, &mut rng);
        let compressed = seeds.len() * SEED_LEN + residual.len() * 8;
        let naive = 5 * xs.len() * 8;
        assert!(compressed * 4 < naive, "{compressed} vs {naive}");
    }
}
