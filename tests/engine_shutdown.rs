//! Engine shutdown hardening: `drain_and_close` must deliver every
//! in-flight batch exactly once, in submission order, and reject all
//! later submissions — under concurrent submitters, not just the
//! single-threaded unit tests in `bnb-engine`.

use std::collections::BTreeMap;
use std::thread;
use std::time::Duration;

use bnb::core::batch::FrameBatch;
use bnb::core::network::BnbNetwork;
use bnb::engine::{Engine, EngineConfig, Payload, ShardDepth, Submission};
use bnb::topology::perm::Permutation;
use bnb::topology::record::records_for_permutation;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn no_frame_is_lost_or_doubled_across_drain_and_close() {
    let m = 4;
    let net = BnbNetwork::new(m);
    let engine = Engine::new(
        net,
        EngineConfig {
            workers: 3,
            queue_capacity: 2,
            shard_depth: ShardDepth::Auto,
        },
    );

    let (accepted_per_thread, early, tail) = engine.run(|handle| {
        thread::scope(|s| {
            // Four submitters racing the close: each tries to push 10
            // frames, retrying on a full queue, stopping early if the
            // close wins the race.
            let submitters: Vec<_> = (0..4)
                .map(|t| {
                    let handle = &handle;
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(0xC105_ED00 + t as u64);
                        let mut accepted = Vec::new();
                        while accepted.len() < 10 {
                            let perm = Permutation::random(1 << m, &mut rng);
                            match handle.try_submit(records_for_permutation(&perm)) {
                                Ok(seq) => accepted.push(seq),
                                Err(e) if e.is_closed() => break,
                                Err(_) => thread::sleep(Duration::from_micros(50)),
                            }
                        }
                        accepted
                    })
                })
                .collect();

            // A draining consumer pulls half the traffic *before* the
            // close so the test covers frames delivered on both sides of
            // it. `drain()` returns None when nothing is outstanding at
            // that instant (submitters may be mid-retry), so poll.
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            let mut early = Vec::new();
            while early.len() < 20 {
                match handle.drain() {
                    Some(batch) => {
                        assert!(batch.result.is_ok(), "pre-close batch failed");
                        early.push(batch.seq);
                    }
                    None => {
                        assert!(
                            std::time::Instant::now() < deadline,
                            "submitters stalled: only {} of 20 early drains",
                            early.len()
                        );
                        thread::sleep(Duration::from_micros(100));
                    }
                }
            }

            let tail = handle.drain_and_close();
            let accepted: Vec<Vec<u64>> =
                submitters.into_iter().map(|h| h.join().unwrap()).collect();
            (accepted, early, tail)
        })
    });

    // Ledger: every accepted seq appears exactly once across the early
    // drains and the close-time tail — nothing lost, nothing doubled.
    let mut seen: BTreeMap<u64, usize> = BTreeMap::new();
    for &seq in early.iter() {
        *seen.entry(seq).or_default() += 1;
    }
    let mut last_tail_seq = None;
    for batch in &tail {
        assert!(batch.result.is_ok(), "tail batch {} failed", batch.seq);
        if let Some(prev) = last_tail_seq {
            assert!(batch.seq > prev, "tail must stay in submission order");
        }
        last_tail_seq = Some(batch.seq);
        *seen.entry(batch.seq).or_default() += 1;
    }
    let accepted_total: usize = accepted_per_thread.iter().map(Vec::len).sum();
    assert_eq!(
        seen.len(),
        accepted_total,
        "every accepted batch drains exactly once"
    );
    for (seq, count) in &seen {
        assert_eq!(*count, 1, "batch {seq} drained {count} times");
    }
    for accepted in &accepted_per_thread {
        for seq in accepted {
            assert!(seen.contains_key(seq), "accepted batch {seq} never drained");
        }
    }
    assert!(
        accepted_total >= 20,
        "the race must actually exercise the queue (got {accepted_total})"
    );
}

#[test]
fn submissions_after_close_return_the_batch_intact() {
    let m = 3;
    let net = BnbNetwork::new(m);
    let engine = Engine::new(net, EngineConfig::with_workers(2));
    engine.run(|handle| {
        let perm = Permutation::try_from(vec![1, 0, 3, 2, 5, 4, 7, 6]).unwrap();
        handle.submit(records_for_permutation(&perm));
        let tail = handle.drain_and_close();
        assert_eq!(tail.len(), 1);

        let lines = records_for_permutation(&perm);
        let err = handle.try_submit(lines.clone()).unwrap_err();
        assert!(err.is_closed());
        // The refused frame comes back untouched — callers can re-offer
        // it elsewhere instead of losing the frame.
        assert_eq!(
            err.into_submission().into_payload(),
            Payload::Frame(lines.clone())
        );

        // So does a refused tagged batch, tokens included.
        let mut batch = FrameBatch::new(1 << m);
        batch.push_frame(&lines);
        batch.push_frame(&lines);
        let tagged = Submission::tagged(Payload::Batch(batch), vec![3, 4]);
        let err = handle.try_submit(tagged.clone()).unwrap_err();
        assert!(err.is_closed());
        assert_eq!(err.into_submission(), tagged);
        assert!(handle.drain().is_none(), "closed queue yields no batches");
    });
}
