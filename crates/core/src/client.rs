//! The Prio client: encode, prove, share, (optionally) seal.

use prio_afe::{Afe, AfeError};
use prio_circuit::Circuit;
use prio_crypto::ed25519::{Keypair, Point};
use prio_crypto::prg::{Prg, Seed};
use prio_crypto::sealed::SessionKey;
use prio_field::FieldElement;
use prio_snip::{prove, Domain, HForm, ProveOptions, SnipProofShare};

/// Client-side configuration.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Number of aggregation servers `s`.
    pub num_servers: usize,
    /// How `h` is transmitted (Appendix-I point-value form by default).
    pub h_form: HForm,
    /// PRG share compression (Appendix I): when on, servers `0..s−1`
    /// receive 32-byte seeds and only the last server an explicit vector,
    /// cutting the upload from `s·(L + |π|)` field elements to
    /// `L + |π| + O(s)`.
    pub compress: bool,
}

impl ClientConfig {
    /// Default configuration for `s` servers (compression on).
    pub fn new(num_servers: usize) -> Self {
        assert!(num_servers >= 2, "Prio needs at least two servers");
        ClientConfig {
            num_servers,
            h_form: HForm::PointValue,
            compress: true,
        }
    }
}

/// One server's part of a client submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShareBlob<F: FieldElement> {
    /// PRG seed; the server expands it into `(x_share, proof_share)`.
    Seed(Seed),
    /// Explicit flattened share vector `[x ‖ u0 ‖ v0 ‖ h ‖ a ‖ b ‖ c]`.
    Explicit(Vec<F>),
}

impl<F: FieldElement> ShareBlob<F> {
    /// Serialized size in bytes (field elements, or the 32-byte seed).
    pub fn encoded_len(&self) -> usize {
        match self {
            ShareBlob::Seed(_) => prio_crypto::prg::SEED_LEN + 1,
            ShareBlob::Explicit(v) => v.len() * F::ENCODED_LEN + 1,
        }
    }
}

/// A complete client submission: one blob per server.
#[derive(Clone, Debug)]
pub struct ClientSubmission<F: FieldElement> {
    /// Per-server share blobs (index = server index).
    pub blobs: Vec<ShareBlob<F>>,
    /// Domain-separation label used for PRG expansion.
    pub prg_label: u64,
}

impl<F: FieldElement> ClientSubmission<F> {
    /// Total upload size in bytes across all servers.
    pub fn upload_bytes(&self) -> usize {
        self.blobs.iter().map(|b| b.encoded_len()).sum()
    }
}

/// Flattened layout geometry for `(x, π)` share vectors.
#[derive(Copy, Clone, Debug)]
pub struct ShareLayout {
    /// Length of the AFE encoding `x`.
    pub x_len: usize,
    /// SNIP domain geometry.
    pub dom: Domain,
    /// `h` representation.
    pub h_form: HForm,
}

impl ShareLayout {
    /// Layout for an encoding of length `x_len` whose `Valid` circuit has
    /// `m` multiplication gates.
    pub fn for_gates(x_len: usize, m: usize, h_form: HForm) -> Self {
        ShareLayout {
            x_len,
            dom: Domain::for_mul_gates(m),
            h_form,
        }
    }

    /// Total flattened length: `x ‖ u0 ‖ v0 ‖ h ‖ a ‖ b ‖ c`.
    pub fn flat_len(&self) -> usize {
        self.x_len + 2 + self.dom.h_domain() + 3
    }

    /// Flattens an `(x, π)` pair.
    pub fn flatten<F: FieldElement>(&self, x: &[F], proof: &SnipProofShare<F>) -> Vec<F> {
        assert_eq!(x.len(), self.x_len, "x length");
        assert_eq!(proof.h.len(), self.dom.h_domain(), "h length");
        let mut out = Vec::with_capacity(self.flat_len());
        out.extend_from_slice(x);
        out.push(proof.u0);
        out.push(proof.v0);
        out.extend_from_slice(&proof.h);
        out.push(proof.a);
        out.push(proof.b);
        out.push(proof.c);
        out
    }

    /// Splits a flattened vector back into `(x, π)`.
    ///
    /// Returns `None` if the length is wrong.
    pub fn unflatten<F: FieldElement>(&self, flat: &[F]) -> Option<(Vec<F>, SnipProofShare<F>)> {
        if flat.len() != self.flat_len() {
            return None;
        }
        let x = flat[..self.x_len].to_vec();
        let u0 = flat[self.x_len];
        let v0 = flat[self.x_len + 1];
        let h_start = self.x_len + 2;
        let h_end = h_start + self.dom.h_domain();
        let h = flat[h_start..h_end].to_vec();
        Some((
            x,
            SnipProofShare {
                u0,
                v0,
                h,
                h_form: self.h_form,
                a: flat[h_end],
                b: flat[h_end + 1],
                c: flat[h_end + 2],
            },
        ))
    }

    /// Expands a PRG seed blob into `(x, π)`.
    ///
    /// Draws stream elements in exactly the flattened order
    /// (`x ‖ u0 ‖ v0 ‖ h ‖ a ‖ b ‖ c`) with bulk [`Prg::fill_field_slice`]
    /// passes, so the result is identical to expanding `flat_len()`
    /// elements and unflattening — without the intermediate vector and its
    /// copy, which showed up in server unpack profiles.
    pub fn expand<F: FieldElement>(&self, seed: &Seed, label: u64) -> (Vec<F>, SnipProofShare<F>) {
        let mut prg = Prg::new(seed, label);
        let mut x = vec![F::zero(); self.x_len];
        let mut masks = [F::zero(); 2];
        let mut h = vec![F::zero(); self.dom.h_domain()];
        let mut triple = [F::zero(); 3];
        prg.fill_field_slice(&mut x);
        prg.fill_field_slice(&mut masks);
        prg.fill_field_slice(&mut h);
        prg.fill_field_slice(&mut triple);
        let [u0, v0] = masks;
        let [a, b, c] = triple;
        let proof = SnipProofShare {
            u0,
            v0,
            h,
            h_form: self.h_form,
            a,
            b,
            c,
        };
        (x, proof)
    }
}

/// A Prio client bound to one AFE.
pub struct Client<F: FieldElement, A: Afe<F>> {
    afe: A,
    circuit: Circuit<F>,
    cfg: ClientConfig,
    next_label: u64,
}

impl<F: FieldElement, A: Afe<F>> Client<F, A> {
    /// Creates a client for the given AFE and deployment configuration.
    pub fn new(afe: A, cfg: ClientConfig) -> Self {
        let circuit = afe.valid_circuit();
        Client {
            afe,
            circuit,
            cfg,
            next_label: 0,
        }
    }

    /// The share layout all servers must agree on.
    pub fn layout(&self) -> ShareLayout {
        ShareLayout::for_gates(
            self.afe.encoded_len(),
            self.circuit.num_mul_gates(),
            self.cfg.h_form,
        )
    }

    /// The AFE this client encodes with.
    pub fn afe(&self) -> &A {
        &self.afe
    }

    /// The `Valid` circuit.
    pub fn circuit(&self) -> &Circuit<F> {
        &self.circuit
    }

    /// Builds a complete submission for `input`: encode, prove, share.
    pub fn submit<R: rand::Rng + ?Sized>(
        &mut self,
        input: &A::Input,
        rng: &mut R,
    ) -> Result<ClientSubmission<F>, AfeError> {
        let encoding = self.afe.encode(input, rng)?;
        let s = self.cfg.num_servers;
        let opts = ProveOptions {
            h_form: self.cfg.h_form,
        };
        let layout = self.layout();
        let label = self.next_label;
        self.next_label += 1;

        let blobs = if self.cfg.compress {
            // Produce the *whole* proof in one piece, flatten, and share the
            // flat vector with PRG-compressed additive sharing.
            let full_proof = prove(&self.circuit, &encoding, 1, opts, rng)
                .pop()
                .expect("one share requested");
            let mut residual = layout.flatten(&encoding, &full_proof);
            let mut blobs = Vec::with_capacity(s);
            for _ in 0..s - 1 {
                let seed = Seed::random(rng);
                Prg::new(&seed, label).subtract_from(&mut residual);
                blobs.push(ShareBlob::Seed(seed));
            }
            blobs.push(ShareBlob::Explicit(residual));
            blobs
        } else {
            let proofs = prove(&self.circuit, &encoding, s, opts, rng);
            let x_shares = prio_field::share_additive_vec(&encoding, s, rng);
            x_shares
                .into_iter()
                .zip(proofs)
                .map(|(x, p)| ShareBlob::Explicit(layout.flatten(&x, &p)))
                .collect()
        };
        Ok(ClientSubmission {
            blobs,
            prg_label: label,
        })
    }

    /// Seals each blob to the corresponding server's public key, producing
    /// the actual network packets (NaCl-box stand-in; Section 6 notes this
    /// "obviates the need for client-to-server TLS").
    pub fn seal_submission(
        submission: &ClientSubmission<F>,
        client_keys: &Keypair,
        server_keys: &[Point],
    ) -> Vec<Vec<u8>> {
        use crate::messages::blob_to_bytes;
        assert_eq!(submission.blobs.len(), server_keys.len());
        submission
            .blobs
            .iter()
            .zip(server_keys)
            .map(|(blob, pk)| {
                let mut session = SessionKey::establish(client_keys, pk);
                let mut payload = submission.prg_label.to_le_bytes().to_vec();
                payload.extend(blob_to_bytes(blob));
                session.seal(&payload)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_afe::sum::SumAfe;
    use prio_field::{unshare_additive_vec, Field64};
    use rand::SeedableRng;

    #[test]
    fn compressed_shares_reconstruct() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut client: Client<Field64, _> =
            Client::new(SumAfe::new(4), ClientConfig::new(3));
        let sub = client.submit(&11, &mut rng).unwrap();
        assert_eq!(sub.blobs.len(), 3);
        assert!(matches!(sub.blobs[0], ShareBlob::Seed(_)));
        assert!(matches!(sub.blobs[2], ShareBlob::Explicit(_)));

        let layout = client.layout();
        let flats: Vec<Vec<Field64>> = sub
            .blobs
            .iter()
            .map(|b| match b {
                ShareBlob::Seed(seed) => {
                    prio_crypto::prg::expand_share(seed, sub.prg_label, layout.flat_len())
                }
                ShareBlob::Explicit(v) => v.clone(),
            })
            .collect();
        let flat = unshare_additive_vec(&flats);
        let (x, proof) = layout.unflatten(&flat).unwrap();
        // x must be the honest encoding of 11 = 1011b.
        assert_eq!(x[0], Field64::from_u64(11));
        assert_eq!(x[1], Field64::one());
        assert_eq!(x[2], Field64::one());
        assert_eq!(x[3], Field64::zero());
        assert_eq!(x[4], Field64::one());
        // The reconstructed triple must be valid.
        assert_eq!(proof.c, proof.a * proof.b);
    }

    #[test]
    fn compression_shrinks_upload() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let afe = SumAfe::new(32);
        let mut compressed: Client<Field64, _> =
            Client::new(afe.clone(), ClientConfig::new(5));
        let mut explicit: Client<Field64, _> = Client::new(
            afe,
            ClientConfig {
                num_servers: 5,
                h_form: HForm::PointValue,
                compress: false,
            },
        );
        let a = compressed.submit(&77, &mut rng).unwrap();
        let b = explicit.submit(&77, &mut rng).unwrap();
        assert!(
            a.upload_bytes() * 3 < b.upload_bytes(),
            "{} vs {}",
            a.upload_bytes(),
            b.upload_bytes()
        );
    }

    #[test]
    fn labels_are_unique_per_submission() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut client: Client<Field64, _> =
            Client::new(SumAfe::new(4), ClientConfig::new(2));
        let s1 = client.submit(&1, &mut rng).unwrap();
        let s2 = client.submit(&1, &mut rng).unwrap();
        assert_ne!(s1.prg_label, s2.prg_label);
    }

    #[test]
    fn layout_roundtrip() {
        let layout = ShareLayout::for_gates(4, 3, HForm::PointValue);
        // N = 4, h domain = 8, flat = 4 + 2 + 8 + 3 = 17.
        assert_eq!(layout.flat_len(), 17);
        let x: Vec<Field64> = (0..4).map(Field64::from_u64).collect();
        let proof = SnipProofShare {
            u0: Field64::from_u64(100),
            v0: Field64::from_u64(101),
            h: (0..8).map(Field64::from_u64).collect(),
            h_form: HForm::PointValue,
            a: Field64::from_u64(1),
            b: Field64::from_u64(2),
            c: Field64::from_u64(3),
        };
        let flat = layout.flatten(&x, &proof);
        let (x2, p2) = layout.unflatten(&flat).unwrap();
        assert_eq!(x2, x);
        assert_eq!(p2, proof);
        assert!(layout.unflatten(&flat[..16]).is_none());
    }
}
