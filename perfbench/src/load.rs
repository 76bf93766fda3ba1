//! Load generation: seeded operation schedules, an open-loop dispatcher
//! that sleeps until each arrival is due, a one-client closed loop, and a
//! saturating capacity probe.
//!
//! Open-loop latency is charged from the *scheduled* arrival, never from
//! the moment the request was handed to the service, so a stall also
//! delays every request due behind it. The dispatcher records how late it
//! issued each request (`lag_ms`); the workload refuses to report a run in
//! which it fell behind.

use crate::util::SplitMix;
use keybridge_core::{
    DiversifiedReply, DiversifyOptions, KeywordQuery, RequestError, SearchReply, ServeRequests,
    Ticket, TimedReply,
};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Answers requested per search (top-k).
pub const K: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    Search,
    Diversified,
    Session,
    Ingest,
}

/// One scheduled operation. `unit_at` is its arrival on a unit-rate
/// Poisson clock; the arrival at offered rate `r` is `unit_at / r`, so the
/// mode/argument sequence of a seed is the same at every rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    pub unit_at: f64,
    pub mode: Mode,
    /// Query index for reads; the batch sequence number for ingests.
    pub arg: usize,
}

impl Op {
    pub fn due_s(&self, rate: f64) -> f64 {
        self.unit_at / rate
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Fisher-Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut SplitMix) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// Draw `n` operations from `mix` (mode, weight), stratified so a run's
/// work does not depend on luck: modes come in shuffled blocks holding
/// each mode exactly in proportion to its weight, and each read mode walks
/// its own shuffled deck of the `n_queries` queries (reshuffled when
/// spent). Ingests take batches in order.
pub fn schedule(seed: u64, n: usize, mix: &[(Mode, u32)], n_queries: usize) -> Vec<Op> {
    let g = mix.iter().fold(0, |g, m| gcd(g, m.1));
    let block: Vec<Mode> = mix
        .iter()
        .flat_map(|&(mode, w)| std::iter::repeat_n(mode, (w / g) as usize))
        .collect();
    let mut rng = SplitMix::new(seed);
    let mut modes: Vec<Mode> = Vec::new();
    let mut decks: Vec<(Mode, Vec<usize>)> = Vec::new();
    let mut clock = 0.0;
    let mut ingests = 0;
    (0..n)
        .map(|_| {
            if modes.is_empty() {
                modes = block.clone();
                shuffle(&mut modes, &mut rng);
            }
            let mode = modes.pop().expect("refilled above");
            let arg = if mode == Mode::Ingest {
                ingests += 1;
                ingests - 1
            } else {
                let pos = match decks.iter().position(|d| d.0 == mode) {
                    Some(pos) => pos,
                    None => {
                        decks.push((mode, Vec::new()));
                        decks.len() - 1
                    }
                };
                let deck = &mut decks[pos].1;
                if deck.is_empty() {
                    *deck = (0..n_queries.max(1)).collect();
                    shuffle(deck, &mut rng);
                }
                deck.pop().expect("refilled above")
            };
            // Unit-rate exponential gap, drawn after mode and argument.
            clock += -(1.0 - rng.next_f64()).ln();
            Op {
                unit_at: clock,
                mode,
                arg,
            }
        })
        .collect()
}

/// Ops of `schedule` due within `seconds` at `rate` (plus slack for the
/// Poisson count).
pub fn ops_for(seed: u64, rate: f64, seconds: f64, mix: &[(Mode, u32)], nq: usize) -> Vec<Op> {
    let n = (rate * seconds * 1.3) as usize + 64;
    let mut ops = schedule(seed, n, mix, nq);
    ops.retain(|op| op.due_s(rate) < seconds);
    ops
}

/// What a completed operation returned, reduced to what the oracle checks.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Answers {
        epoch: u64,
        fp: u64,
    },
    Diversified {
        epoch: u64,
        fp: u64,
    },
    Session {
        epoch: u64,
        fp: u64,
    },
    Ingest {
        epoch: u64,
        rows: usize,
    },
    /// Refused, failed, or lost (no reply).
    Failed(String),
}

#[derive(Debug, Clone)]
pub struct Done {
    /// Index into the run's op list.
    pub op: usize,
    pub mode: Mode,
    pub arg: usize,
    /// Scheduled arrival → completion, in ms.
    pub latency_ms: f64,
    /// Completion, seconds after the run started.
    pub done_s: f64,
    pub outcome: Outcome,
}

#[derive(Debug, Default)]
pub struct LoadRun {
    pub done: Vec<Done>,
    /// How late the generator issued each operation, in ms.
    pub lag_ms: Vec<f64>,
    pub seconds: f64,
    /// Process CPU seconds from the start of the run until its last reply
    /// was collected (service, generator and reply fingerprinting),
    /// split into parts: one per complete pass of a closed loop, one for
    /// a whole open loop. Each part is `(cpu seconds, operations)`.
    pub cpu_parts: Vec<(f64, usize)>,
}

impl LoadRun {
    /// Latencies of one mode, ascending.
    pub fn latencies(&self, mode: Mode) -> Vec<f64> {
        crate::util::sorted(
            self.done
                .iter()
                .filter(|d| d.mode == mode)
                .map(|d| d.latency_ms)
                .collect(),
        )
    }

    /// Completed reads per second: reads over the span from the start to
    /// the last read completion (at least the scheduled window), so a
    /// growing backlog lowers it.
    pub fn read_rate(&self) -> f64 {
        let reads: Vec<&Done> = self
            .done
            .iter()
            .filter(|d| d.mode != Mode::Ingest)
            .collect();
        let span = reads.iter().map(|d| d.done_s).fold(self.seconds, f64::max);
        reads.len() as f64 / span
    }

    /// CPU milliseconds per operation: the median over the run's parts,
    /// so one pass slowed by a noisy neighbour does not set the figure.
    pub fn cpu_ms_per_op(&self) -> f64 {
        let per: Vec<f64> = self
            .cpu_parts
            .iter()
            .map(|&(cpu, ops)| cpu * 1e3 / ops.max(1) as f64)
            .collect();
        crate::util::median(&crate::util::sorted(per))
    }

    /// Operations the CPU figure covers.
    pub fn cpu_ops(&self) -> usize {
        self.cpu_parts.iter().map(|p| p.1).sum()
    }

    pub fn failed(&self) -> usize {
        self.done
            .iter()
            .filter(|d| matches!(d.outcome, Outcome::Failed(_)))
            .count()
    }
}

enum Pending {
    Search(Ticket<TimedReply<SearchReply>>),
    Diversified(Ticket<TimedReply<DiversifiedReply>>),
}

fn search_outcome(r: Result<SearchReply, RequestError>) -> Outcome {
    match r {
        Ok(r) => Outcome::Answers {
            epoch: r.epoch.0,
            fp: crate::util::fp_answers(&r.answers),
        },
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

fn diversified_outcome(r: Result<DiversifiedReply, RequestError>) -> Outcome {
    match r {
        Ok(r) => Outcome::Diversified {
            epoch: r.epoch.0,
            fp: crate::util::fp_diversified(r.pool, &r.answers),
        },
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

/// Run `ops` open-loop at `rate` for `seconds` on two generator threads:
/// this thread dispatches searches and diversified requests on the
/// non-blocking seam, a second one runs the blocking modes (sessions,
/// ingests) through `sync_op` in schedule order. A third thread issues
/// nothing: it waits on the dispatched tickets in issue order and reduces
/// each reply to its fingerprint at once, so replies are not held in
/// memory until the run ends (latency is taken from the reply's own
/// completion instant, not from when the collector got to it).
pub fn open_loop(
    svc: &dyn ServeRequests,
    queries: &[KeywordQuery],
    ops: &[Op],
    rate: f64,
    seconds: f64,
    sync_op: &(dyn Fn(&Op) -> Outcome + Sync),
) -> LoadRun {
    let div_opts = DiversifyOptions::default();
    let cpu0 = crate::util::process_cpu_s();
    let start = Instant::now() + Duration::from_millis(2);
    let (tx, rx) = mpsc::channel::<(usize, Instant)>();
    let (ptx, prx) = mpsc::channel::<(usize, Instant, Pending)>();
    // Pre-touched buffer: the dispatcher never page-faults on a push.
    let mut lag_ms = vec![0.0f64; ops.len()];
    let mut done = std::thread::scope(|s| {
        let client = s.spawn(move || {
            let mut out = Vec::new();
            for (i, due) in rx {
                let op: &Op = &ops[i];
                let outcome = sync_op(op);
                let now = Instant::now();
                out.push(Done {
                    op: i,
                    mode: op.mode,
                    arg: op.arg,
                    latency_ms: now.saturating_duration_since(due).as_secs_f64() * 1e3,
                    done_s: now.saturating_duration_since(start).as_secs_f64(),
                    outcome,
                });
            }
            out
        });
        let collector = s.spawn(move || {
            let mut out = Vec::with_capacity(ops.len());
            for (i, due, p) in prx {
                let (completed, outcome) = match p {
                    Pending::Search(t) => match t.wait() {
                        Some(r) => (r.completed_at, search_outcome(r.result)),
                        None => (Instant::now(), Outcome::Failed("lost ticket".into())),
                    },
                    Pending::Diversified(t) => match t.wait() {
                        Some(r) => (r.completed_at, diversified_outcome(r.result)),
                        None => (Instant::now(), Outcome::Failed("lost ticket".into())),
                    },
                };
                out.push(Done {
                    op: i,
                    mode: ops[i].mode,
                    arg: ops[i].arg,
                    latency_ms: completed.saturating_duration_since(due).as_secs_f64() * 1e3,
                    done_s: completed.saturating_duration_since(start).as_secs_f64(),
                    outcome,
                });
            }
            out
        });
        for (i, op) in ops.iter().enumerate() {
            let due = start + Duration::from_secs_f64(op.due_s(rate));
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let issued = Instant::now();
            lag_ms[i] = issued.saturating_duration_since(due).as_secs_f64() * 1e3;
            let q = || queries[op.arg].clone();
            let pending = match op.mode {
                Mode::Search => Pending::Search(svc.submit_timed(q(), K)),
                Mode::Diversified => {
                    Pending::Diversified(svc.submit_diversified_timed(q(), div_opts))
                }
                Mode::Session | Mode::Ingest => {
                    tx.send((i, due)).expect("sync client alive");
                    continue;
                }
            };
            ptx.send((i, due, pending)).expect("collector alive");
        }
        drop(tx);
        drop(ptx);
        let mut done = collector.join().expect("collector thread");
        done.extend(client.join().expect("sync client thread"));
        done
    });
    done.sort_by_key(|d| d.op);
    LoadRun {
        done,
        lag_ms,
        seconds,
        cpu_parts: vec![(crate::util::process_cpu_s() - cpu0, ops.len())],
    }
}

/// Saturated throughput of `svc`: searches over `queries` in `order`
/// (cycled), `in_flight` of them outstanding at all times, for `seconds`.
/// Completed searches per second.
pub fn capacity(
    svc: &dyn ServeRequests,
    queries: &[KeywordQuery],
    order: &[usize],
    in_flight: usize,
    seconds: f64,
) -> f64 {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut next = order.iter().cycle();
    let mut send = || svc.submit(queries[*next.next().expect("non-empty order")].clone(), K);
    let mut window: std::collections::VecDeque<_> = (0..in_flight).map(|_| send()).collect();
    let mut completed = 0usize;
    while Instant::now() < end {
        let t = window.pop_front().expect("window is never empty");
        let _ = t.wait();
        completed += 1;
        window.push_back(send());
    }
    let span = start.elapsed().as_secs_f64();
    for t in window {
        let _ = t.wait();
    }
    completed as f64 / span
}

/// One client, one request in flight: the next query is sent when the
/// previous reply arrives, for `seconds`. The queries are replayed in
/// `order`, pass after pass, each pass on a fresh (cold) service from
/// `start_svc`. CPU is charged over the complete passes only, so it always
/// covers the same work. `lag_ms` records the client's own turnaround
/// between a reply and the next send.
pub fn closed_loop<S: ServeRequests>(
    start_svc: impl Fn() -> S,
    queries: &[KeywordQuery],
    order: &[usize],
    seconds: f64,
) -> LoadRun {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut run = LoadRun {
        seconds,
        ..LoadRun::default()
    };
    let mut prev = start;
    'passes: while Instant::now() < end {
        let cpu0 = crate::util::process_cpu_s();
        let svc = start_svc();
        for &q in order {
            if Instant::now() >= end {
                break 'passes;
            }
            let sent = Instant::now();
            run.lag_ms.push((sent - prev).as_secs_f64() * 1e3);
            let outcome = match svc.submit(queries[q].clone(), K).wait() {
                Some(r) => search_outcome(r),
                None => Outcome::Failed("lost ticket".into()),
            };
            prev = Instant::now();
            run.done.push(Done {
                op: run.done.len(),
                mode: Mode::Search,
                arg: q,
                latency_ms: (prev - sent).as_secs_f64() * 1e3,
                done_s: (prev - start).as_secs_f64(),
                outcome,
            });
        }
        drop(svc);
        run.cpu_parts
            .push((crate::util::process_cpu_s() - cpu0, order.len()));
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: [(Mode, u32); 3] = [
        (Mode::Search, 90),
        (Mode::Diversified, 5),
        (Mode::Session, 5),
    ];

    #[test]
    fn same_seed_same_sequence_at_any_rate() {
        let a = ops_for(7, 100.0, 5.0, &MIX, 108);
        let b = ops_for(7, 900.0, 5.0, &MIX, 108);
        assert!(b.len() > a.len() * 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.mode, x.arg), (y.mode, y.arg));
            assert_eq!(x.unit_at.to_bits(), y.unit_at.to_bits());
            assert!((x.due_s(100.0) - 9.0 * y.due_s(900.0)).abs() < 1e-9);
        }
        assert_eq!(schedule(7, 500, &MIX, 108), schedule(7, 500, &MIX, 108));
        assert_ne!(schedule(7, 500, &MIX, 108), schedule(8, 500, &MIX, 108));
    }

    #[test]
    fn mix_and_rate_are_respected() {
        let ops = ops_for(3, 1000.0, 10.0, &MIX, 108);
        let n = ops.len() as f64;
        assert!((n - 10_000.0).abs() < 500.0, "{n} arrivals");
        // Every block of 20 holds exactly 18 searches.
        for block in ops.chunks_exact(20) {
            assert_eq!(block.iter().filter(|o| o.mode == Mode::Search).count(), 18);
        }
        assert!(ops.iter().all(|o| o.arg < 108));
        // Each mode walks its own deck: the first 108 searches are a
        // permutation of the log.
        let mut first: Vec<usize> = ops
            .iter()
            .filter(|o| o.mode == Mode::Search)
            .take(108)
            .map(|o| o.arg)
            .collect();
        first.sort_unstable();
        assert_eq!(first, (0..108).collect::<Vec<_>>());
    }

    #[test]
    fn ingests_take_batches_in_order() {
        let mix = [(Mode::Search, 75), (Mode::Ingest, 25)];
        let ops = schedule(5, 400, &mix, 108);
        let batches: Vec<usize> = ops
            .iter()
            .filter(|o| o.mode == Mode::Ingest)
            .map(|o| o.arg)
            .collect();
        assert_eq!(batches, (0..batches.len()).collect::<Vec<_>>());
    }
}
