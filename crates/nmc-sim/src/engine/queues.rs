//! Per-PE request queues, merged by key.
//!
//! Each PE owns a FIFO of the pre-routed requests it emitted. A PE emits in
//! non-decreasing [`ReqKey`] order — `cycle` never decreases and `seq`
//! counts up — so each FIFO is sorted, and a min-heap over the non-empty
//! FIFOs' head keys merges them. Draining below the synchronization horizon
//! therefore serves requests in global key order: the order the reference
//! engine would have issued them in. Restricted to one vault, that is the
//! vault's key order, so every vault's DRAM state and counters come out as
//! in the reference engine.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use crate::components::dram::DramModel;

use super::arena::ReqKey;

/// One routed memory request, waiting in its PE's queue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedReq {
    /// Global replay-order key.
    pub key: ReqKey,
    /// Cycle the request reaches the vault controller (issue + crossbar).
    pub now: u64,
    /// Pre-mapped row.
    pub row: u64,
    /// Pre-mapped vault.
    pub vault: u32,
    /// Pre-mapped bank within the vault.
    pub bank: u32,
    /// Write (store fill write-backs and dirty evictions) vs. read.
    pub write: bool,
    /// Arena slot to resolve with the completion cycle; `None` for requests
    /// whose completion nobody observes (write-backs, store fills).
    pub slot: Option<u32>,
}

/// The per-PE FIFOs plus the heap of their head keys.
#[derive(Debug, Default)]
pub(crate) struct RequestQueues {
    fifos: Vec<VecDeque<QueuedReq>>,
    /// The head key of every non-empty FIFO, smallest first.
    heads: BinaryHeap<Reverse<ReqKey>>,
}

impl RequestQueues {
    /// Prepares `num_pes` empty queues, reusing prior allocations.
    pub fn reset_to(&mut self, num_pes: usize) {
        for q in &mut self.fifos {
            q.clear();
        }
        self.fifos.resize_with(num_pes, VecDeque::new);
        self.heads.clear();
    }

    /// Appends a request to the queue of the PE its key names. Each PE's
    /// keys must arrive in increasing order.
    #[inline]
    pub fn push(&mut self, req: QueuedReq) {
        let q = &mut self.fifos[req.key.pe as usize];
        debug_assert!(
            q.back().is_none_or(|b| b.key < req.key),
            "a PE emits in key order"
        );
        if q.is_empty() {
            self.heads.push(Reverse(req.key));
        }
        q.push_back(req);
    }

    /// Serves every queued request with key strictly below `horizon`, in
    /// key order, against the DRAM model. `on_done(req, completion)` runs
    /// for each served request (the engine resolves arena slots there).
    pub fn drain_below(
        &mut self,
        horizon: ReqKey,
        dram: &mut DramModel,
        mut on_done: impl FnMut(&QueuedReq, u64),
    ) {
        while let Some(mut head) = self.heads.peek_mut() {
            if head.0 >= horizon {
                break;
            }
            let q = &mut self.fifos[head.0.pe as usize];
            let req = q.pop_front().expect("a head key has its request");
            match q.front() {
                Some(next) => head.0 = next.key,
                None => {
                    PeekMut::pop(head);
                }
            }
            let done = dram.access_mapped(
                req.vault as usize,
                req.bank as usize,
                req.row,
                req.write,
                req.now,
            );
            on_done(&req, done);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArchConfig;

    fn req(cycle: u64, pe: u32, seq: u64, vault: u32) -> QueuedReq {
        QueuedReq {
            key: ReqKey { cycle, pe, seq },
            now: cycle,
            row: 0,
            vault,
            bank: 0,
            write: false,
            slot: None,
        }
    }

    #[test]
    fn merge_serves_below_the_horizon_in_global_key_order() {
        let cfg = ArchConfig::paper_default();
        let mut dram = DramModel::new(&cfg);
        let mut q = RequestQueues::default();
        q.reset_to(3);
        // Interleaved emission; each PE's own keys increase.
        let reqs = [
            req(5, 1, 0, 0),
            req(3, 0, 0, 0),
            req(6, 2, 0, 1),
            req(5, 0, 1, 1),
            req(5, 1, 1, 0),
            req(7, 0, 2, 0),
            req(9, 2, 1, 1),
        ];
        for r in reqs {
            q.push(r);
        }
        let keys = |t: &[(u64, u32, u64)]| -> Vec<ReqKey> {
            t.iter()
                .map(|&(cycle, pe, seq)| ReqKey { cycle, pe, seq })
                .collect()
        };
        let mut order = Vec::new();
        let horizon = ReqKey {
            cycle: 6,
            pe: 2,
            seq: 0,
        };
        q.drain_below(horizon, &mut dram, |r, _| order.push(r.key));
        assert_eq!(
            order,
            keys(&[(3, 0, 0), (5, 0, 1), (5, 1, 0), (5, 1, 1)]),
            "the horizon's own key and everything above it wait"
        );
        assert_eq!(dram.stats().accesses(), 4);
        assert_eq!(dram.vault_accesses()[..2], [3, 1]);

        // PE 1's queue drained empty; it re-enters the merge when PE 1
        // emits again.
        q.push(req(8, 1, 2, 1));
        order.clear();
        q.drain_below(ReqKey::MAX, &mut dram, |r, _| order.push(r.key));
        assert_eq!(order, keys(&[(6, 2, 0), (7, 0, 2), (8, 1, 2), (9, 2, 1)]));
        assert_eq!(dram.stats().accesses(), 8);
        assert!(q.heads.is_empty());
    }
}
