//! Garbage-flood regression test: a network-facing (Lenient) server loop
//! hit with 10 000 junk frames must account for every one of them in
//! `server_frames_dropped_total{reason=...}` while emitting only a bounded
//! trickle of rate-limited warn events — the stderr-flood fix.

use prio_afe::sum::SumAfe;
use prio_core::messages::ServerMsg;
use prio_core::{run_server_loop, FramePolicy, Server, ServerConfig, ServerLoopOptions};
use prio_field::Field64;
use prio_net::wire::Wire;
use prio_net::SimNetwork;
use prio_obs::{names, CaptureSink, Events, Level, Obs, Registry};
use std::sync::Arc;

const FLOOD: u64 = 10_000;
const FROM_STRANGER: u64 = 6_000;
const FROM_FORGER: u64 = FLOOD - FROM_STRANGER;

#[test]
fn garbage_flood_is_counted_not_printed() {
    // A private Obs bundle: fresh registry (exact counts, no bleed from
    // other tests in this process) and a capture sink (assert on events
    // instead of eyeballing stderr).
    let registry = Arc::new(Registry::new());
    let sink = Arc::new(CaptureSink::new());
    let events = Events::new(sink.clone(), Level::Debug);
    let obs = Obs::new(registry.clone(), events);

    let net = SimNetwork::new();
    let server_ep = net.endpoint();
    let peer_ep = net.endpoint();
    let driver_ep = net.endpoint();
    let stranger_ep = net.endpoint();
    let server_id = server_ep.id();
    let ids = vec![server_id, peer_ep.id()];
    let driver_id = driver_ep.id();

    let handle = std::thread::spawn(move || {
        let mut server = Server::<Field64, _>::new(
            SumAfe::new(8),
            ServerConfig {
                index: 0,
                num_servers: 2,
                verify_mode: prio_snip::VerifyMode::FixedPoint,
                h_form: prio_snip::HForm::PointValue,
            },
        );
        let opts = ServerLoopOptions {
            verify_threads: 1,
            frame_policy: FramePolicy::Lenient,
            obs,
            ..ServerLoopOptions::default()
        };
        run_server_loop(&mut server, &server_ep, &ids, driver_id, opts)
    });

    // The flood: well-formed frames from a sender outside the deployment
    // (dropped as unknown_sender) and undecodable junk from a "known"
    // sender id (dropped as undecodable). The sim fabric is one global
    // FIFO, so everything lands before the shutdown below.
    let junk = ServerMsg::<Field64>::Shutdown.to_wire_bytes();
    for _ in 0..FROM_STRANGER - 1 {
        stranger_ep.send(server_id, junk.clone()).unwrap();
    }
    // A suppressed tally only becomes visible on the *next emitted* event
    // of the same name, and emission needs a refilled token (1/s). Hold
    // the last stranger frame back past one refill period so the flood's
    // suppression count surfaces deterministically.
    std::thread::sleep(std::time::Duration::from_millis(1200));
    stranger_ep.send(server_id, junk.clone()).unwrap();
    for i in 0..FROM_FORGER {
        driver_ep.send(server_id, vec![0xFF, (i & 0xFF) as u8, 0xEE]).unwrap();
    }
    driver_ep
        .send(server_id, ServerMsg::<Field64>::Shutdown.to_wire_bytes())
        .unwrap();

    let report = handle.join().expect("server loop panicked");
    assert!(report.clean, "loop must exit through the orderly shutdown");

    // Exact accounting: every flood frame is in a drop counter, split by
    // reason, and the loop's local tally agrees.
    assert_eq!(report.frames_dropped, FLOOD);
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter(names::SERVER_FRAMES_DROPPED, &[("reason", "unknown_sender")]),
        Some(FROM_STRANGER)
    );
    assert_eq!(
        snap.counter(names::SERVER_FRAMES_DROPPED, &[("reason", "undecodable")]),
        Some(FROM_FORGER)
    );
    assert_eq!(snap.counter_sum(names::SERVER_FRAMES_DROPPED), FLOOD);

    // Bounded narration: the old code printed one stderr line per frame
    // (10 000 lines); the rate limiter must keep this to a trickle. The
    // default budget is a burst of 5 per event name plus 1/s refill, and
    // the flood takes well under a minute, so even with refill slack the
    // two event names together stay far below 100 — and nowhere near the
    // 10 000 a per-frame print would produce.
    let captured = sink.events();
    assert!(
        captured.len() < 100,
        "expected a bounded trickle of warn events, got {}",
        captured.len()
    );
    assert!(captured
        .iter()
        .all(|e| e.name.starts_with("frame_dropped_")));
    // Suppression is visible: at least one emitted event carries the
    // count of the flood frames it stands in for.
    assert!(
        captured.iter().any(|e| e.suppressed > 0),
        "a 10k flood must trip the rate limiter"
    );
}

/// One forged frame must not stop a network-facing node: a well-formed
/// `Round1` of the wrong length, under the follower's (unauthenticated)
/// id and the live batch's ctx, is the first thing the Lenient leader's
/// round-1 gather sees. The leader must count it, keep waiting, and
/// finish the batch on the genuine vector with the reference decisions.
#[test]
fn forged_wrong_length_round1_is_dropped_and_the_batch_completes() {
    use prio_core::{BatchDriver, Client, ClientConfig, Cluster, ShareBlob};
    use prio_field::FieldElement;
    use prio_snip::{HForm, Round1Msg, VerifyMode};
    use rand::SeedableRng;

    // Four submissions, one ballot-stuffed; `Cluster::process` is the
    // reference for what the deployment must decide.
    let mut rng = rand::rngs::StdRng::seed_from_u64(14);
    let mut client: Client<Field64, _> = Client::new(SumAfe::new(8), ClientConfig::new(2));
    let mut subs: Vec<_> = [3u64, 5, 7, 11]
        .iter()
        .map(|v| client.submit(v, &mut rng).expect("honest input"))
        .collect();
    if let ShareBlob::Explicit(v) = &mut subs[2].blobs[1] {
        v[0] += Field64::from_u64(999);
    }
    let mut reference: Cluster<Field64, _> = Cluster::new(SumAfe::new(8), 2, VerifyMode::FixedPoint);
    let expect: Vec<bool> = subs.iter().map(|sub| reference.process(sub)).collect();
    assert_eq!(expect, vec![true, true, false, true]);

    let net = SimNetwork::new();
    let eps = [net.endpoint(), net.endpoint()];
    let driver_ep = net.endpoint();
    let ids: Vec<_> = eps.iter().map(|ep| ep.id()).collect();
    let driver_id = driver_ep.id();

    // The forgery: the driver's first batch carries ctx_seed 1 (seeds
    // count up from 1 — which is what lets a stranger guess it), and the
    // vector is one entry too long. The sim fabric stamps the sender, so
    // "forge the follower's id" means sending from the follower's own
    // endpoint before its loop starts; the frame waits in the leader's
    // stash and is the first candidate its round-1 gather examines.
    let forged = ServerMsg::Round1 {
        ctx: 1,
        msgs: vec![
            Round1Msg {
                d: Field64::zero(),
                e: Field64::zero(),
            };
            subs.len() + 1
        ],
    };
    eps[1].send(ids[0], forged.to_wire_bytes()).expect("forged frame queued");

    let registries = [Arc::new(Registry::new()), Arc::new(Registry::new())];
    let sink = Arc::new(CaptureSink::new());
    let handles: Vec<_> = eps
        .into_iter()
        .zip(&registries)
        .enumerate()
        .map(|(index, (ep, registry))| {
            let ids = ids.clone();
            let opts = ServerLoopOptions {
                frame_policy: FramePolicy::Lenient,
                obs: Obs::new(registry.clone(), Events::new(sink.clone(), Level::Debug)),
                ..ServerLoopOptions::default()
            };
            std::thread::spawn(move || {
                let mut server = Server::<Field64, _>::new(
                    SumAfe::new(8),
                    ServerConfig {
                        index,
                        num_servers: 2,
                        verify_mode: VerifyMode::FixedPoint,
                        h_form: HForm::PointValue,
                    },
                );
                let report = run_server_loop(&mut server, &ep, &ids, driver_id, opts);
                (report, server.accepted(), server.rejected(), server.accumulator().to_vec())
            })
        })
        .collect();

    // A bounded driver: if the leader's loop exits on the forgery (the
    // bug), this surfaces as a timeout instead of a hung test.
    let mut driver = BatchDriver::<Field64>::new(driver_ep, ids.clone())
        .with_timeout(std::time::Duration::from_secs(20));
    let decisions = driver.run_batch(&subs).expect("batch completes despite the forgery");
    driver.shutdown();
    assert_eq!(decisions, expect);

    let results: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("server loop panicked"))
        .collect();
    for (report, accepted, rejected, _) in &results {
        assert!(report.clean, "loop must survive to the orderly shutdown");
        assert_eq!((*accepted, *rejected), (3, 1));
    }
    assert_eq!(
        results[0].3[0] + results[1].3[0],
        Field64::from_u64(3 + 5 + 11),
        "the aggregate holds exactly the accepted values"
    );

    // Exactly one drop, on the leader, under its own reason.
    assert_eq!(results[0].0.frames_dropped, 1);
    assert_eq!(results[1].0.frames_dropped, 0);
    let snap = registries[0].snapshot();
    assert_eq!(
        snap.counter(names::SERVER_FRAMES_DROPPED, &[("reason", "bad_length")]),
        Some(1)
    );
    assert_eq!(snap.counter_sum(names::SERVER_FRAMES_DROPPED), 1);
    assert!(sink
        .events()
        .iter()
        .any(|e| e.name == "frame_dropped_bad_length"));
}
