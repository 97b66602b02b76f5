//! Slab arena for in-flight load requests.
//!
//! Every load miss allocates one fixed-size slot here instead of any
//! per-instruction heap structure; slots are recycled through a free list,
//! so steady-state simulation performs no allocator calls at all. A slot
//! carries the load's resolved completion cycle once the merged drain
//! serves its request, plus an `awaited` flag marking the (at most one)
//! slot its owning PE is stalled on — resolving that slot makes the PE
//! runnable again without scanning frontends.

/// Global ordering key of one memory request: the exact order the reference
/// engine would have performed the access in. `cycle` is the owning PE's
/// local clock at the start of the emitting step (the reference engine's
/// heap key when it popped that PE), `pe` breaks cycle ties the way the
/// min-heap on `(cycle, pe)` does, and `seq` is the PE's running request
/// counter, preserving program order (and intra-step order: a dirty
/// write-back precedes its line fill).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ReqKey {
    pub cycle: u64,
    pub pe: u32,
    pub seq: u64,
}

impl ReqKey {
    /// A key greater than every real key — the final-drain horizon, and
    /// the horizon entry of a PE that is not blocked.
    pub const MAX: ReqKey = ReqKey {
        cycle: u64::MAX,
        pe: u32::MAX,
        seq: u64::MAX,
    };
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Owning PE (the one to wake if `awaited`).
    pe: u32,
    /// Completion cycle; valid only when `resolved`.
    completion: u64,
    resolved: bool,
    awaited: bool,
}

/// Reusable slab of in-flight loads. Indices are dense `u32` handles.
#[derive(Debug, Default)]
pub(crate) struct LoadArena {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    peak: usize,
}

impl LoadArena {
    /// Clears all slots for a new run, keeping the allocations.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.live = 0;
        self.peak = 0;
    }

    /// Allocates a slot for an unresolved load issued by `pe`.
    pub fn alloc(&mut self, pe: u32) -> u32 {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        let slot = Slot {
            pe,
            completion: 0,
            resolved: false,
            awaited: false,
        };
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// The load's completion cycle, if the drain has served its request.
    #[inline]
    pub fn completion(&self, slot: u32) -> Option<u64> {
        let s = &self.slots[slot as usize];
        s.resolved.then_some(s.completion)
    }

    /// Records the load's completion. Returns the owning PE if it was
    /// stalled waiting on this slot (the caller makes it runnable).
    #[inline]
    pub fn resolve(&mut self, slot: u32, completion: u64) -> Option<u32> {
        let s = &mut self.slots[slot as usize];
        debug_assert!(!s.resolved, "slot resolved twice");
        s.resolved = true;
        s.completion = completion;
        if s.awaited {
            s.awaited = false;
            Some(s.pe)
        } else {
            None
        }
    }

    /// Marks `slot` as the one its owning PE is stalled on.
    #[inline]
    pub fn set_awaited(&mut self, slot: u32) {
        self.slots[slot as usize].awaited = true;
    }

    /// Returns a slot to the free list.
    #[inline]
    pub fn free(&mut self, slot: u32) {
        debug_assert!(self.slots[slot as usize].resolved, "freed unresolved");
        self.live -= 1;
        self.free.push(slot);
    }

    /// High-water mark of concurrently live slots this run.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_order_like_the_reference_heap() {
        let k = |cycle, pe, seq| ReqKey { cycle, pe, seq };
        // Cycle first, then PE index, then per-PE sequence.
        assert!(k(4, 9, 0) < k(5, 0, 0));
        assert!(k(5, 0, 7) < k(5, 1, 0));
        assert!(k(5, 1, 3) < k(5, 1, 4));
        assert!(k(5, 1, 3) < ReqKey::MAX);
    }

    #[test]
    fn slots_recycle_and_track_peak() {
        let mut a = LoadArena::default();
        let s0 = a.alloc(0);
        let s1 = a.alloc(1);
        assert_ne!(s0, s1);
        assert_eq!(a.completion(s0), None);
        assert_eq!(a.resolve(s0, 42), None, "not awaited");
        assert_eq!(a.completion(s0), Some(42));
        a.free(s0);
        let s2 = a.alloc(2);
        assert_eq!(s2, s0, "freed slot is recycled");
        assert_eq!(a.completion(s2), None, "recycled slot starts unresolved");
        assert_eq!(a.peak(), 2);
        a.resolve(s1, 7);
        a.free(s1);
        a.resolve(s2, 9);
        a.free(s2);
        a.reset();
        assert_eq!(a.peak(), 0);
    }

    #[test]
    fn awaited_slot_reports_owner_on_resolve() {
        let mut a = LoadArena::default();
        let s = a.alloc(3);
        a.set_awaited(s);
        assert_eq!(a.resolve(s, 100), Some(3));
    }
}
