//! The SNIP prover (client side) — Step 1 of Section 4.2.

use crate::beaver::BeaverTriple;
use crate::{Domain, HForm, SnipProofShare};
use prio_circuit::Circuit;
use prio_field::ntt::NttPlan;
use prio_field::poly::interpolate_pow2;
use prio_field::{share_additive, share_additive_vec, FieldElement};

/// Prover configuration.
#[derive(Copy, Clone, Debug, Default)]
pub struct ProveOptions {
    /// How to transmit `h` (see [`HForm`]). Point-value form is the
    /// Appendix-I optimized default.
    pub h_form: HForm,
}

/// Produces one SNIP proof share per server for the statement
/// `Valid(x) = 1`, where `circuit` is `Valid` and `input` is `x`.
///
/// The proof construction (for a circuit with `M ≥ 1` `×` gates):
///
/// * evaluate the circuit; let `u_t, v_t` be the `t`-th gate's input values;
/// * pick random `u_0, v_0` — these mask `f(r)` and `g(r)` during
///   verification, which is what gives the protocol its zero-knowledge
///   property (Appendix D.2 shows the simulation fails without them);
/// * interpolate `f` (through the `u`s) and `g` (through the `v`s) on the
///   size-`N` domain, compute `h = f·g` on the size-`2N` domain (its even
///   points are `u_t·v_t`, its odd points a size-`N` coset transform);
/// * sample a Beaver triple and additively share everything.
///
/// For `M = 0` (purely affine predicates) the polynomial machinery
/// degenerates: the proof carries only a zero-filled triple, and the
/// verifiers rely on the assertion-wire check alone.
///
/// # Panics
/// Panics if `input` has the wrong arity or (in debug builds) if
/// `Valid(input) ≠ 1` — an honest client never proves a false statement.
pub fn prove<F: FieldElement, R: rand::Rng + ?Sized>(
    circuit: &Circuit<F>,
    input: &[F],
    num_servers: usize,
    opts: ProveOptions,
    rng: &mut R,
) -> Vec<SnipProofShare<F>> {
    assert!(num_servers >= 1, "need at least one server");
    let trace = circuit.evaluate(input);
    debug_assert!(
        trace.assertions.iter().all(|&a| a == F::zero()),
        "honest prover called on invalid input"
    );
    let dom = Domain::for_mul_gates(circuit.num_mul_gates());

    if dom.m == 0 {
        return (0..num_servers)
            .map(|_| SnipProofShare {
                u0: F::zero(),
                v0: F::zero(),
                h: Vec::new(),
                h_form: opts.h_form,
                a: F::zero(),
                b: F::zero(),
                c: F::zero(),
            })
            .collect();
    }

    // Wire values on the evaluation domain: index 0 is the random mask,
    // indices 1..=M are gate inputs, the rest pad with zero (the servers
    // use the same padding, so shares stay consistent).
    let u0 = F::random(rng);
    let v0 = F::random(rng);
    let mut u = vec![F::zero(); dom.n];
    let mut v = vec![F::zero(); dom.n];
    u[0] = u0;
    v[0] = v0;
    u[1..=dom.m].copy_from_slice(&trace.mul_left);
    v[1..=dom.m].copy_from_slice(&trace.mul_right);

    // h = f·g in point-value form on the 2N domain (degree ≤ 2N−2 < 2N, so
    // the evaluations determine h exactly). The even points ω₂N^{2t} are
    // the N domain, where f and g are u and v themselves. The odd points
    // ω₂N·ω_N^t are the coset ω₂N·⟨ω_N⟩: f(ω₂N·ω_N^t) is the size-N NTT of
    // the twisted coefficients c_i·ω₂N^i. Two size-N transforms per
    // polynomial, instead of a size-2N forward transform.
    let plan_n = NttPlan::<F>::get(dom.n);
    let plan_2n = NttPlan::<F>::get(2 * dom.n);
    let on_odd_points = |evals: &[F]| {
        let mut coeffs = evals.to_vec();
        plan_n.inverse(&mut coeffs);
        for (c, &w) in coeffs.iter_mut().zip(plan_2n.domain()) {
            *c *= w;
        }
        plan_n.forward(&mut coeffs);
        coeffs
    };
    let f_odd = on_odd_points(&u);
    let g_odd = on_odd_points(&v);
    let mut h_evals = Vec::with_capacity(2 * dom.n);
    for t in 0..dom.n {
        h_evals.push(u[t] * v[t]);
        h_evals.push(f_odd[t] * g_odd[t]);
    }

    let h_payload = match opts.h_form {
        HForm::PointValue => h_evals,
        HForm::Coefficients => interpolate_pow2(&h_evals),
    };

    let triple = BeaverTriple::random(rng);

    // Additively share every component of π.
    let u0_shares = share_additive(u0, num_servers, rng);
    let v0_shares = share_additive(v0, num_servers, rng);
    let h_shares = share_additive_vec(&h_payload, num_servers, rng);
    let t_shares = triple.share(num_servers, rng);

    u0_shares
        .into_iter()
        .zip(v0_shares)
        .zip(h_shares)
        .zip(t_shares)
        .map(|(((u0, v0), h), t)| SnipProofShare {
            u0,
            v0,
            h,
            h_form: opts.h_form,
            a: t.a,
            b: t.b,
            c: t.c,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_circuit::{gadgets, CircuitBuilder};
    use prio_field::poly;
    use prio_field::{unshare_additive, unshare_additive_vec, Field64};
    use rand::SeedableRng;

    fn bits_circuit(n: usize) -> Circuit<Field64> {
        let mut b = CircuitBuilder::new(n);
        let inputs = b.inputs();
        gadgets::assert_bits(&mut b, &inputs);
        b.finish()
    }

    #[test]
    fn proof_shares_reconstruct_valid_h() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let circuit = bits_circuit(3); // M = 3, N = 4
        let input = [1u64, 0, 1].map(Field64::from_u64);
        let shares = prove(&circuit, &input, 3, ProveOptions::default(), &mut rng);
        assert_eq!(shares.len(), 3);

        // Reconstruct π and check its internal consistency.
        let u0 = unshare_additive(&shares.iter().map(|s| s.u0).collect::<Vec<_>>());
        let v0 = unshare_additive(&shares.iter().map(|s| s.v0).collect::<Vec<_>>());
        let h_evals =
            unshare_additive_vec(&shares.iter().map(|s| s.h.clone()).collect::<Vec<_>>());
        assert_eq!(h_evals.len(), 8); // 2N

        // Rebuild f and g as the prover did and confirm h = f·g pointwise.
        let trace = circuit.evaluate(&input);
        let mut u = vec![Field64::zero(); 4];
        let mut v = vec![Field64::zero(); 4];
        u[0] = u0;
        v[0] = v0;
        u[1..=3].copy_from_slice(&trace.mul_left);
        v[1..=3].copy_from_slice(&trace.mul_right);
        let f = poly::interpolate_pow2(&u);
        let g = poly::interpolate_pow2(&v);
        let f2 = poly::evaluate_pow2(&f, 8);
        let g2 = poly::evaluate_pow2(&g, 8);
        for i in 0..8 {
            assert_eq!(h_evals[i], f2[i] * g2[i], "h mismatch at {i}");
        }

        // Beaver triple must satisfy c = a·b.
        let a = unshare_additive(&shares.iter().map(|s| s.a).collect::<Vec<_>>());
        let b = unshare_additive(&shares.iter().map(|s| s.b).collect::<Vec<_>>());
        let c = unshare_additive(&shares.iter().map(|s| s.c).collect::<Vec<_>>());
        assert_eq!(c, a * b);
    }

    #[test]
    fn h_at_even_points_are_gate_outputs() {
        // h(ω_N^t) = u_t · v_t — the property the servers rely on to read
        // ×-gate outputs out of the proof. ω_N^t is the (2t)-th point of
        // the 2N domain.
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let circuit = bits_circuit(3);
        let input = [1u64, 1, 0].map(Field64::from_u64);
        let shares = prove(&circuit, &input, 2, ProveOptions::default(), &mut rng);
        let h_evals =
            unshare_additive_vec(&shares.iter().map(|s| s.h.clone()).collect::<Vec<_>>());
        let trace = circuit.evaluate(&input);
        for t in 1..=3usize {
            assert_eq!(
                h_evals[2 * t],
                trace.mul_left[t - 1] * trace.mul_right[t - 1],
                "gate {t}"
            );
        }
    }

    #[test]
    fn coefficient_form_encodes_same_h() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let circuit = bits_circuit(2);
        let input = [0u64, 1].map(Field64::from_u64);
        let opts = ProveOptions {
            h_form: HForm::Coefficients,
        };
        let shares = prove(&circuit, &input, 2, opts, &mut rng);
        let h_coeffs =
            unshare_additive_vec(&shares.iter().map(|s| s.h.clone()).collect::<Vec<_>>());
        // Evaluating the coefficients over the 2N domain and re-checking the
        // gate-output property.
        let h_evals = poly::evaluate_pow2(&h_coeffs, h_coeffs.len());
        let trace = circuit.evaluate(&input);
        for t in 1..=2usize {
            assert_eq!(h_evals[2 * t], trace.mul_left[t - 1] * trace.mul_right[t - 1]);
        }
    }

    #[test]
    fn u0_randomization_differs_between_proofs() {
        // The masks must be fresh per proof (ZK depends on it).
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let circuit = bits_circuit(2);
        let input = [1u64, 0].map(Field64::from_u64);
        let s1 = prove(&circuit, &input, 2, ProveOptions::default(), &mut rng);
        let s2 = prove(&circuit, &input, 2, ProveOptions::default(), &mut rng);
        let u0_first = unshare_additive(&s1.iter().map(|s| s.u0).collect::<Vec<_>>());
        let u0_second = unshare_additive(&s2.iter().map(|s| s.u0).collect::<Vec<_>>());
        assert_ne!(u0_first, u0_second);
    }

    #[test]
    fn mul_free_circuit_yields_trivial_proof() {
        let mut b = CircuitBuilder::<Field64>::new(2);
        let x = b.input(0);
        let y = b.input(1);
        b.assert_eq(x, y);
        let circuit = b.finish();
        let mut rng = rand::rngs::StdRng::seed_from_u64(45);
        let shares = prove(
            &circuit,
            &[Field64::from_u64(3), Field64::from_u64(3)],
            4,
            ProveOptions::default(),
            &mut rng,
        );
        assert!(shares.iter().all(|s| s.h.is_empty()));
    }
}
