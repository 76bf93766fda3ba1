//! The worker pool every service runs on: the single-shard
//! [`crate::SearchService`], the sharded coordinator, and each shard.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// One unit of pool work. A job owns its reply channel, so the submitter
/// learns about the outcome (or a dropped job) through that channel.
pub(crate) type PoolJob = Box<dyn FnOnce() + Send + 'static>;

/// A fixed set of named threads draining one job queue. Jobs run under
/// `catch_unwind`, so a panicking job never takes its thread down; its
/// submitter observes the failure through the job's dropped reply channel.
/// Dropping the pool hangs up the queue, lets the threads drain it, and
/// joins them.
pub(crate) struct WorkerPool {
    tx: Option<Sender<PoolJob>>,
    threads: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Start `threads` threads (at least one) named `{name}-{i}`.
    pub(crate) fn start(name: &str, threads: usize) -> Self {
        let (tx, rx) = channel::<PoolJob>();
        let rx = Arc::new(Mutex::new(rx));
        let threads = (0..threads.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only for the pop.
                        let job = match rx.lock() {
                            Ok(guard) => guard.recv(),
                            Err(_) => return,
                        };
                        let Ok(job) = job else { return }; // hung up: drained
                        let _ = catch_unwind(AssertUnwindSafe(job));
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            threads,
        }
    }

    /// Number of threads.
    pub(crate) fn threads(&self) -> usize {
        self.threads.len()
    }

    /// Enqueue one job.
    pub(crate) fn submit(&self, job: PoolJob) {
        if let Some(tx) = &self.tx {
            // Only fails when every thread is gone; the submitter observes
            // that through its reply channel.
            let _ = tx.send(job);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.tx.take(); // hang up: threads drain the queue, then exit
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
