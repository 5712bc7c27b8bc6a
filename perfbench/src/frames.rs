//! Seeded workload frames and the delivery check every routed frame
//! must pass.

use std::sync::OnceLock;

use bnb_serve::protocol::Message;
use bnb_topology::record::Record;

/// SplitMix64: a small, seedable generator. The program under test only
/// ever sees the frames it produces, never the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`), by rejection.
    pub fn below(&mut self, bound: u64) -> u64 {
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % bound;
            }
        }
    }
}

/// A pool of random permutation frames of width `n`, cycled through by
/// every phase of a run.
pub struct Pool {
    pub n: usize,
    /// `dests[f][i]`: destination of input `i` in frame `f`.
    pub dests: Vec<Vec<u32>>,
    /// Each frame's SUBMIT encoding, built on first use so the offline
    /// path, which never sends, does not hold it.
    submits: OnceLock<Vec<Vec<u8>>>,
}

/// Byte offset of the tenant id inside an encoded message (after the
/// 4-byte length prefix, version and opcode).
pub const TENANT_AT: usize = 6;
/// Byte offset of the request id inside an encoded message.
pub const REQUEST_ID_AT: usize = 8;

impl Pool {
    pub fn new(n: usize, frames: usize, seed: u64) -> Pool {
        let mut rng = Rng::new(seed);
        let dests: Vec<Vec<u32>> = (0..frames)
            .map(|_| {
                let mut p: Vec<u32> = (0..n as u32).collect();
                for i in (1..n).rev() {
                    let j = rng.below(i as u64 + 1) as usize;
                    p.swap(i, j);
                }
                p
            })
            .collect();
        Pool {
            n,
            dests,
            submits: OnceLock::new(),
        }
    }

    /// Each frame's SUBMIT encoding with tenant 0 and request id 0; the
    /// client patches both header fields per send.
    pub fn submits(&self) -> &[Vec<u8>] {
        self.submits.get_or_init(|| {
            self.dests
                .iter()
                .map(|d| {
                    Message::Submit {
                        tenant: 0,
                        request_id: 0,
                        dests: d.clone(),
                    }
                    .to_bytes()
                })
                .collect()
        })
    }

    pub fn len(&self) -> usize {
        self.dests.len()
    }

    /// Frame `f` as engine input: record `i` carries destination
    /// `dests[i]` and its own input index as payload.
    pub fn records(&self, f: usize) -> Vec<Record> {
        self.dests[f]
            .iter()
            .enumerate()
            .map(|(i, &d)| Record::new(d as usize, i as u64))
            .collect()
    }
}

/// A ROUTED reply is correct when output `j` holds the input destined
/// for `j`: `dests[sources[j]] == j` for every `j`. With `dests` a
/// permutation this also makes every output used exactly once.
pub fn sources_deliver(dests: &[u32], sources: &[u32]) -> bool {
    sources.len() == dests.len()
        && sources
            .iter()
            .enumerate()
            .all(|(j, &s)| dests.get(s as usize) == Some(&(j as u32)))
}

/// The engine-side form of [`sources_deliver`]: line `j` holds a record
/// destined `j` whose payload names an input destined `j`.
pub fn records_deliver(dests: &[u32], lines: &[Record]) -> bool {
    lines.len() == dests.len()
        && lines.iter().enumerate().all(|(j, r)| {
            r.dest() == j
                && usize::try_from(r.data()).ok().and_then(|i| dests.get(i)) == Some(&(j as u32))
        })
}

/// The host's speed on the benchmark's own stand-in for routing, in
/// frames per CPU-second summed over `threads` threads that run at once
/// for `duration`, each taking the pool's frames in turn through
/// `log2 n` butterfly stages that swap records by their destination
/// bits, then scattering them to their destinations. It counts CPU time,
/// not wall time, so CPU the host steals from the guest does not lower
/// it: it measures how fast a CPU runs, not how long it is held. It does
/// not call the program, so a change to the program leaves it alone.
pub fn host_speed(pool: &Pool, threads: usize, duration: std::time::Duration) -> f64 {
    let stages = pool.n.trailing_zeros();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut lines = vec![0u64; pool.n];
                    let mut out = vec![0u64; pool.n];
                    let t0 = std::time::Instant::now();
                    let cpu0 = crate::sys::thread_cpu_ns();
                    let mut frames = 0usize;
                    while t0.elapsed() < duration {
                        let dests = &pool.dests[(frames * threads + t) % pool.len()];
                        for (i, (l, &d)) in lines.iter_mut().zip(dests).enumerate() {
                            *l = u64::from(d) << 32 | i as u64;
                        }
                        for stage in 0..stages {
                            let bit = 1usize << stage;
                            for i in (0..pool.n).filter(|i| i & bit == 0) {
                                if (lines[i] >> (32 + stage)) & 1 == 1 {
                                    lines.swap(i, i | bit);
                                }
                            }
                        }
                        for &l in &lines {
                            out[(l >> 32) as usize] = l;
                        }
                        frames += 1;
                    }
                    std::hint::black_box(&out);
                    let cpu = crate::sys::thread_cpu_ns().saturating_sub(cpu0);
                    frames as f64 * 1e9 / cpu.max(1) as f64
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0.0)).sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_frames_are_permutations_and_seeded() {
        let a = Pool::new(64, 8, 7);
        let b = Pool::new(64, 8, 7);
        let c = Pool::new(64, 8, 8);
        assert_eq!(a.dests, b.dests);
        assert_ne!(a.dests, c.dests);
        for d in &a.dests {
            let mut s = d.clone();
            s.sort_unstable();
            assert_eq!(s, (0..64).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn delivery_check_rejects_misrouting() {
        let dests = vec![2u32, 0, 1];
        // Output 0 ← input 1, output 1 ← input 2, output 2 ← input 0.
        assert!(sources_deliver(&dests, &[1, 2, 0]));
        assert!(!sources_deliver(&dests, &[1, 0, 2]));
        assert!(!sources_deliver(&dests, &[1, 2]));
        assert!(!sources_deliver(&dests, &[1, 2, 9]));
        let lines: Vec<Record> = [1u64, 2, 0]
            .iter()
            .enumerate()
            .map(|(j, &i)| Record::new(j, i))
            .collect();
        assert!(records_deliver(&dests, &lines));
        let mut bad = lines.clone();
        bad.swap(0, 1);
        assert!(!records_deliver(&dests, &bad));
    }

    #[test]
    fn header_offsets_match_the_encoding() {
        let bytes = Message::Submit {
            tenant: 0x0102,
            request_id: 0x0304_0506_0708_090A,
            dests: vec![0, 1],
        }
        .to_bytes();
        assert_eq!(&bytes[TENANT_AT..TENANT_AT + 2], &[1, 2]);
        assert_eq!(
            &bytes[REQUEST_ID_AT..REQUEST_ID_AT + 8],
            &0x0304_0506_0708_090Au64.to_be_bytes()
        );
    }

    #[test]
    fn host_speed_counts_frames_on_every_thread() {
        let pool = Pool::new(64, 4, 1);
        assert!(host_speed(&pool, 2, std::time::Duration::from_millis(10)) > 0.0);
    }
}
