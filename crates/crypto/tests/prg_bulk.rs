//! Stream identity of the bulk PRG paths.
//!
//! `Prg::fill_field_slice` (and `expand_field_vec` / `subtract_from` on top
//! of it) must yield exactly the elements that one-at-a-time `next_field`
//! calls yield, and leave the ChaCha20 stream at the same offset, for every
//! seed, label, length and field — including `Field32`, whose modulus
//! `3·2³⁰+1` rejects about a quarter of the candidate blocks. Each case
//! replays one random script of bulk draws, single draws and raw byte reads
//! on two generators: one through the bulk path, one element at a time.

use prio_crypto::prg::{expand_share, Prg, Seed};
use prio_field::{Field128, Field256, Field32, Field64, FieldElement};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random cases per field.
const CASES: u64 = 24;

/// One step of a script.
#[derive(Debug)]
enum Step {
    /// A bulk draw of this many elements.
    Bulk(usize),
    /// One `next_field`.
    Single,
    /// Raw keystream bytes.
    Bytes(usize),
}

fn random_script(rng: &mut StdRng) -> Vec<Step> {
    (0..rng.random_range(1..6usize))
        .map(|_| match rng.random_range(0..4u32) {
            0 => Step::Single,
            1 => Step::Bytes(rng.random_range(0..130usize)),
            _ => Step::Bulk(rng.random_range(0..4096usize)),
        })
        .collect()
}

/// Runs `script` through the bulk path and through single draws; returns
/// the first divergence, if any.
fn replay<F: FieldElement>(seed: &Seed, label: u64, script: &[Step]) -> Result<(), String> {
    let mut bulk = Prg::new(seed, label);
    let mut single = Prg::new(seed, label);
    for (i, step) in script.iter().enumerate() {
        match *step {
            Step::Bulk(n) => {
                let mut got = vec![F::zero(); n];
                bulk.fill_field_slice(&mut got);
                let want: Vec<F> = (0..n).map(|_| single.next_field()).collect();
                if got != want {
                    let k = got.iter().zip(&want).position(|(a, b)| a != b);
                    return Err(format!(
                        "step {i} ({step:?}): first diverging element {k:?}"
                    ));
                }
            }
            Step::Single => {
                let (a, b): (F, F) = (bulk.next_field(), single.next_field());
                if a != b {
                    return Err(format!("step {i}: next_field diverged"));
                }
            }
            Step::Bytes(n) => {
                let mut a = vec![0u8; n];
                let mut b = vec![0u8; n];
                bulk.fill_bytes(&mut a);
                single.fill_bytes(&mut b);
                if a != b {
                    return Err(format!("step {i} ({step:?}): byte stream diverged"));
                }
            }
        }
    }
    // Whatever the script did, both generators sit at the same offset.
    let mut a = [0u8; 40];
    let mut b = [0u8; 40];
    bulk.fill_bytes(&mut a);
    single.fill_bytes(&mut b);
    if a != b {
        return Err("stream offsets differ after the script".into());
    }
    Ok(())
}

fn stream_identity<F: FieldElement>() {
    let mut rng = StdRng::seed_from_u64(0x9e11_0000 ^ F::ENCODED_LEN as u64);
    let mut divergences = Vec::new();
    for case in 0..CASES {
        let seed = Seed::random(&mut rng);
        let label: u64 = rng.random();
        let script = random_script(&mut rng);
        if let Err(e) = replay::<F>(&seed, label, &script) {
            divergences.push(format!("case {case} {script:?}: {e}"));
        }
    }
    // Lengths at the edges of a bulk pass, for pass sizes of 8 and 64
    // ChaCha20 blocks.
    for pass_bytes in [512, 4096] {
        let per_pass = pass_bytes / F::ENCODED_LEN;
        for n in [
            0,
            1,
            per_pass - 1,
            per_pass,
            per_pass + 1,
            2 * per_pass + 3,
            4095,
        ] {
            let seed = Seed::random(&mut rng);
            let script = [Step::Single, Step::Bulk(n), Step::Bytes(3), Step::Bulk(n)];
            if let Err(e) = replay::<F>(&seed, n as u64, &script) {
                divergences.push(format!("edge length {n}: {e}"));
            }
        }
    }
    assert!(divergences.is_empty(), "{}: {divergences:#?}", F::NAME);
}

#[test]
fn bulk_expansion_matches_single_draws_field32() {
    stream_identity::<Field32>();
}

#[test]
fn bulk_expansion_matches_single_draws_field64() {
    stream_identity::<Field64>();
}

#[test]
fn bulk_expansion_matches_single_draws_field128() {
    stream_identity::<Field128>();
}

#[test]
fn bulk_expansion_matches_single_draws_field256() {
    stream_identity::<Field256>();
}

fn subtract_matches_single_draws<F: FieldElement>() {
    let mut rng = StdRng::seed_from_u64(0x5ab7 ^ F::ENCODED_LEN as u64);
    for n in [0usize, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1000] {
        let seed = Seed::random(&mut rng);
        let xs: Vec<F> = (0..n).map(|_| F::random(&mut rng)).collect();
        let mut got = xs.clone();
        Prg::new(&seed, 3).subtract_from(&mut got);
        let mut single = Prg::new(&seed, 3);
        let want: Vec<F> = xs.iter().map(|&x| x - single.next_field::<F>()).collect();
        assert_eq!(got, want, "{} n = {n}", F::NAME);
        // The seed and the residual are additive shares of `xs`.
        let back: Vec<F> = expand_share::<F>(&seed, 3, n)
            .into_iter()
            .zip(&got)
            .map(|(e, &r)| e + r)
            .collect();
        assert_eq!(back, xs);
    }
}

#[test]
fn subtract_from_peels_one_share() {
    subtract_matches_single_draws::<Field32>();
    subtract_matches_single_draws::<Field64>();
    subtract_matches_single_draws::<Field128>();
    subtract_matches_single_draws::<Field256>();
}

/// FNV-1a over the canonical encodings of 1000 expanded elements.
fn digest<F: FieldElement>(xs: &[F]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut bytes = [0u8; 64];
    for x in xs {
        let bytes = &mut bytes[..F::ENCODED_LEN];
        x.write_le_bytes(bytes);
        for &b in bytes.iter() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Pinned expansions, recorded with the element-at-a-time expander: 1000
/// elements of `Seed([0x5a; 32])` under label 7, then the next 8 stream
/// bytes. A change here changes every seed-compressed share on the wire.
#[test]
fn pinned_expansions() {
    fn check<F: FieldElement>(want_digest: u64, want_next: u64) {
        let mut prg = Prg::new(&Seed([0x5a; 32]), 7);
        let xs: Vec<F> = prg.expand_field_vec(1000);
        let mut next = [0u8; 8];
        prg.fill_bytes(&mut next);
        assert_eq!(digest(&xs), want_digest, "{} digest", F::NAME);
        assert_eq!(
            u64::from_le_bytes(next),
            want_next,
            "{} stream offset",
            F::NAME
        );
    }
    check::<Field32>(0x1c30_c060_4a0e_1f2e, 0xa5ab_9c30_bcc9_b16b);
    check::<Field64>(0xb559_b225_d79e_7a32, 0x4803_6d53_a11f_5399);
    check::<Field128>(0x1794_e5ae_3ca0_7446, 0x84eb_a2ef_f375_1284);
    check::<Field256>(0x38ec_4107_6c98_c07f, 0xd659_5e76_6aad_c740);
}
