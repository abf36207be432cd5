//! Allocation regression test for the byte path.
//!
//! A counting global allocator tallies the heap allocations of one batch's
//! worth of codec work: encode and decode a `ClientBatch` of `n` explicit
//! submissions (plain and traced), parse every blob, encode and decode the
//! four round frames, and expand `n` seed shares with `ShareLayout::expand`.
//! The count must grow with `n` and must not depend on how many field
//! elements each submission carries — so a per-element allocation (or a
//! buffer grown by doubling) anywhere on that path fails this test.

use prio_core::client::{ShareBlob, ShareLayout};
use prio_core::messages::{blob_from_bytes, blob_to_bytes, pack_decisions, ServerMsg};
use prio_crypto::prg::Seed;
use prio_field::{Field128, Field64, FieldElement};
use prio_net::wire::{from_traced_bytes, to_traced_bytes, Wire};
use prio_snip::{HForm, Round1Msg, Round2Msg};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// Counts allocations (including reallocations) per thread, so tests
/// running in parallel do not see each other's.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator may run while this thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter bump, which
// neither allocates nor touches the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// One batch of codec and expansion work: `n` submissions whose explicit
/// shares carry `x_len + …` elements each (layout from `x_len`, `m`).
fn batch_allocations<F: FieldElement>(n: usize, x_len: usize, m: usize) -> u64 {
    let layout = ShareLayout::for_gates(x_len, m, HForm::PointValue);
    let flat_len = layout.flat_len();
    let subs: Vec<ShareBlob<F>> = (0..n)
        .map(|i| ShareBlob::Explicit((0..flat_len).map(|j| F::from_u64((i * j) as u64)).collect()))
        .collect();
    let labels: Vec<u64> = (0..n as u64).collect();
    let pairs = |k: u64| -> Vec<(F, F)> {
        (0..n as u64)
            .map(|i| (F::from_u64(i + k), F::from_u64(i * k)))
            .collect()
    };
    let round1: Vec<Round1Msg<F>> = pairs(1)
        .into_iter()
        .map(|(d, e)| Round1Msg { d, e })
        .collect();
    let round2: Vec<Round2Msg<F>> = pairs(2)
        .into_iter()
        .map(|(sigma, out)| Round2Msg { sigma, out })
        .collect();
    let decisions = vec![true; n];
    let seeds: Vec<Seed> = (0..n).map(|i| Seed([i as u8; 32])).collect();
    let ctx = prio_obs::TraceCtx {
        trace: 1,
        parent: 2,
    };

    allocations_in(|| {
        // Client batch: build, encode plain and traced, decode, parse blobs.
        let batch: ServerMsg<F> = ServerMsg::ClientBatch {
            ctx_seed: 7,
            labels: labels.clone(),
            blobs: subs.iter().map(blob_to_bytes).collect(),
        };
        let plain = batch.to_wire_bytes();
        let traced = to_traced_bytes(&batch, Some(ctx));
        let (decoded, _) =
            from_traced_bytes::<ServerMsg<F>>(&traced).expect("traced batch decodes");
        let ServerMsg::ClientBatch { blobs, .. } =
            ServerMsg::<F>::from_wire_bytes(&plain).expect("batch decodes")
        else {
            panic!("decoded a different variant");
        };
        for bytes in &blobs {
            black_box(blob_from_bytes::<F>(bytes).expect("blob parses"));
        }
        black_box(decoded);
        // The four round frames.
        let frames: [ServerMsg<F>; 4] = [
            ServerMsg::Round1 {
                ctx: 7,
                msgs: round1.clone(),
            },
            ServerMsg::Round1Combined {
                ctx: 7,
                msgs: round1.clone(),
            },
            ServerMsg::Round2 {
                ctx: 7,
                msgs: round2.clone(),
            },
            ServerMsg::Decisions {
                ctx: 7,
                bits: pack_decisions(&decisions),
            },
        ];
        for frame in &frames {
            let bytes = to_traced_bytes(frame, None);
            black_box(ServerMsg::<F>::from_wire_bytes(&bytes).expect("frame decodes"));
        }
        // Seed-share expansion.
        for (seed, &label) in seeds.iter().zip(&labels) {
            black_box(layout.expand::<F>(seed, label));
        }
    })
}

fn allocations_scale_with_submissions_not_elements<F: FieldElement>() {
    for n in [4usize, 16] {
        // x_len 8 / 3 gates: 21 elements per submission. x_len 1500 /
        // 700 gates: 4553.
        let small = batch_allocations::<F>(n, 8, 3);
        let large = batch_allocations::<F>(n, 1500, 700);
        assert_eq!(
            small,
            large,
            "{}: n = {n}: allocation count depends on field elements per submission",
            F::NAME
        );
    }
    let (few, many) = (
        batch_allocations::<F>(4, 64, 30),
        batch_allocations::<F>(64, 64, 30),
    );
    assert!(
        few < many,
        "{}: {few} allocations for 4 submissions, {many} for 64",
        F::NAME
    );
    // A handful per submission (blob bytes, parsed blob, expanded x and h),
    // never one per element: 64 submissions carry 64·165 elements here.
    assert!(
        many <= 16 * 64,
        "{}: {many} allocations for 64 submissions",
        F::NAME
    );
}

#[test]
fn batch_codec_allocations_scale_with_submissions_field64() {
    allocations_scale_with_submissions_not_elements::<Field64>();
}

#[test]
fn batch_codec_allocations_scale_with_submissions_field128() {
    allocations_scale_with_submissions_not_elements::<Field128>();
}
