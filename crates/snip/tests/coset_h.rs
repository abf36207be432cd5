//! The prover's `h` against the 2N-evaluation reference.
//!
//! `prove` computes `h = f·g` on the 2N domain from its even points
//! (`u_t·v_t`) and one size-N coset transform per polynomial. This test
//! rebuilds `h` the direct way — interpolate `f` and `g` on the N domain,
//! evaluate both on the whole 2N domain, multiply pointwise — and requires
//! the two to agree exactly, on random circuits, for every field and both
//! `HForm`s.

use prio_circuit::{Circuit, CircuitBuilder};
use prio_field::poly::{evaluate_pow2, interpolate_pow2};
use prio_field::{Field128, Field256, Field32, Field64, FieldElement};
use prio_snip::{prove, Domain, HForm, ProveOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random circuits per (field, `HForm`).
const CASES: u64 = 24;

/// A random circuit of `num_inputs` inputs and 1..=`max_muls` `×` gates,
/// mixing in affine gates. It asserts only a constant zero, so every input
/// satisfies it and the honest prover accepts random inputs.
fn random_circuit<F: FieldElement>(
    rng: &mut StdRng,
    num_inputs: usize,
    max_muls: usize,
) -> Circuit<F> {
    let mut b = CircuitBuilder::<F>::new(num_inputs);
    let mut wires = b.inputs();
    let muls = rng.random_range(1..=max_muls);
    while b.num_mul_gates() < muls {
        let x = wires[rng.random_range(0..wires.len())];
        let y = wires[rng.random_range(0..wires.len())];
        let w = match rng.random_range(0..4u32) {
            0 => b.add(x, y),
            1 => b.add_const(x, F::random(rng)),
            _ => b.mul(x, y),
        };
        wires.push(w);
    }
    let zero = b.constant(F::zero());
    b.assert_zero(zero);
    b.finish()
}

/// The reference `h` payload: 2N-point evaluation of `f·g`, converted to
/// coefficients for [`HForm::Coefficients`].
fn reference_h<F: FieldElement>(
    circuit: &Circuit<F>,
    input: &[F],
    u0: F,
    v0: F,
    form: HForm,
) -> Vec<F> {
    let trace = circuit.evaluate(input);
    let dom = Domain::for_mul_gates(circuit.num_mul_gates());
    let mut u = vec![F::zero(); dom.n];
    let mut v = vec![F::zero(); dom.n];
    u[0] = u0;
    v[0] = v0;
    u[1..=dom.m].copy_from_slice(&trace.mul_left);
    v[1..=dom.m].copy_from_slice(&trace.mul_right);
    let f_on_2n = evaluate_pow2(&interpolate_pow2(&u), 2 * dom.n);
    let g_on_2n = evaluate_pow2(&interpolate_pow2(&v), 2 * dom.n);
    let h: Vec<F> = f_on_2n.iter().zip(&g_on_2n).map(|(&a, &b)| a * b).collect();
    match form {
        HForm::PointValue => h,
        HForm::Coefficients => interpolate_pow2(&h),
    }
}

fn coset_h_matches_reference<F: FieldElement>(max_muls: usize) {
    let mut rng = StdRng::seed_from_u64(0xc05e_7000 ^ F::ENCODED_LEN as u64);
    let mut divergences = Vec::new();
    for form in [HForm::PointValue, HForm::Coefficients] {
        for case in 0..CASES {
            let num_inputs = rng.random_range(1..6usize);
            let circuit = random_circuit::<F>(&mut rng, num_inputs, max_muls);
            let input: Vec<F> = (0..num_inputs).map(|_| F::random(&mut rng)).collect();
            // One server: the single "share" is the proof itself.
            let proof = prove(&circuit, &input, 1, ProveOptions { h_form: form }, &mut rng)
                .pop()
                .expect("one share requested");
            let want = reference_h(&circuit, &input, proof.u0, proof.v0, form);
            if proof.h != want {
                let k = proof.h.iter().zip(&want).position(|(a, b)| a != b);
                divergences.push(format!(
                    "{form:?} case {case}: M = {}, first diverging point {k:?}",
                    circuit.num_mul_gates()
                ));
            }
        }
    }
    assert!(divergences.is_empty(), "{}: {divergences:#?}", F::NAME);
}

#[test]
fn coset_h_matches_reference_field32() {
    coset_h_matches_reference::<Field32>(1100);
}

#[test]
fn coset_h_matches_reference_field64() {
    coset_h_matches_reference::<Field64>(1100);
}

#[test]
fn coset_h_matches_reference_field128() {
    coset_h_matches_reference::<Field128>(300);
}

#[test]
fn coset_h_matches_reference_field256() {
    coset_h_matches_reference::<Field256>(140);
}
