//! Per-PE frontends: the pull side of the phase-split engine.
//!
//! A frontend replays one PE's instruction streams exactly as
//! [`ProcessingElement::step`](crate::pe::ProcessingElement::step) would —
//! same fetch, scoreboard, issue-slot, cache, and energy arithmetic — but
//! instead of calling into the shared DRAM synchronously it *emits* typed,
//! pre-routed requests into its own request queue and keeps running ahead.
//! The only feedback from shared state into a PE's timing is a consumed
//! load miss's completion cycle; a frontend therefore runs until a step
//! reads a register whose defining load is still unresolved, then parks
//! (stall-on-use) until the drain phase resolves that arena slot.
//!
//! Differences from the reference PE are pure mechanics, not modeling:
//! the register scoreboard is a dense vector instead of a hash map
//! (register ids are consecutive SSA indices from each thread's emitter;
//! absent means ready-at-0 in both representations) whose entries either
//! hold a ready cycle or, tagged with [`IN_FLIGHT`], the arena slot of the
//! in-flight load defining the register; and completions of unconsumed
//! loads are folded into `last_completion` lazily — at absorb time, at
//! def-overwrite time (register ids restart per software thread, so a
//! later thread's def can shadow an in-flight load), or in the final
//! sweep — which is sound because `max` is commutative.

use napel_ir::{Inst, Opcode};

use crate::components::cache::{Cache, CacheStats};
use crate::components::dram::DramGeometry;
use crate::components::energy::EnergyModel;
use crate::components::pe::exec_latency;
use crate::config::ArchConfig;

use super::arena::{LoadArena, ReqKey};
use super::queues::{QueuedReq, RequestQueues};

/// Scoreboard tag: an entry with this bit set holds the arena slot of the
/// in-flight load that defines the register (the newest def) instead of
/// a ready cycle. Ready cycles stay below it (debug-asserted).
const IN_FLIGHT: u64 = 1 << 63;

/// Mutable engine state a frontend needs while advancing.
pub(crate) struct EngineShared<'a> {
    pub arena: &'a mut LoadArena,
    pub queues: &'a mut RequestQueues,
    pub geometry: DramGeometry,
    pub energy: &'a EnergyModel,
}

/// Why a frontend stopped advancing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrontendStatus {
    /// Parked on an unresolved load (the awaited arena slot is marked).
    Blocked,
    /// All assigned streams are fully executed.
    Exhausted,
}

/// One PE's replay state.
#[derive(Debug)]
pub(crate) struct PeFrontend {
    idx: u32,
    dcache: Cache,
    icache: Cache,
    /// `(lines, line bytes, associativity)` the caches were built with.
    cache_shape: (usize, u64, usize),
    /// Dense scoreboard: ready cycle per register id, or an
    /// [`IN_FLIGHT`]-tagged arena slot; absent (beyond the vector) means
    /// ready at 0, matching the reference engine's missing-key case.
    reg_time: Vec<u64>,
    /// In-flight loads whose destination was overwritten or absent; their
    /// completions still bound `last_completion` at sweep time.
    orphans: Vec<u32>,
    /// Software threads assigned to this PE, executed back-to-back.
    threads: Vec<usize>,
    cursor: usize,
    cycle: u64,
    slots_used: usize,
    issue_width: usize,
    last_completion: u64,
    instructions: u64,
    ifetch_misses: u64,
    compute_energy_pj: f64,
    ifetch_miss_latency: u64,
    hit_latency: u64,
    xbar_latency: u64,
    line_mask: u64,
    /// Running request counter: the `seq` of the next emitted request.
    seq: u64,
    /// The instruction whose step stalled, re-executed on resume (the stall
    /// happens before the step mutates anything, so re-execution is exact).
    stalled: Option<Inst>,
}

fn cache_shape(cfg: &ArchConfig) -> (usize, u64, usize) {
    (cfg.cache_lines, cfg.cache_line_bytes, cfg.cache_assoc)
}

fn new_cache(shape: (usize, u64, usize)) -> Cache {
    Cache::new(shape.0, shape.1, shape.2)
}

impl PeFrontend {
    pub fn new(idx: u32, cfg: &ArchConfig) -> Self {
        let shape = cache_shape(cfg);
        let mut f = PeFrontend {
            idx,
            dcache: new_cache(shape),
            icache: new_cache(shape),
            cache_shape: shape,
            reg_time: Vec::new(),
            orphans: Vec::new(),
            threads: Vec::new(),
            cursor: 0,
            cycle: 0,
            slots_used: 0,
            issue_width: 1,
            last_completion: 0,
            instructions: 0,
            ifetch_misses: 0,
            compute_energy_pj: 0.0,
            ifetch_miss_latency: 0,
            hit_latency: 0,
            xbar_latency: 0,
            line_mask: 0,
            seq: 0,
            stalled: None,
        };
        f.reset_for(cfg);
        f
    }

    /// Returns the frontend to its initial state for `cfg`, keeping every
    /// allocation: the scoreboard and work lists always, the caches unless
    /// their geometry changed.
    pub fn reset_for(&mut self, cfg: &ArchConfig) {
        let shape = cache_shape(cfg);
        if shape == self.cache_shape {
            self.dcache.reset();
            self.icache.reset();
        } else {
            self.dcache = new_cache(shape);
            self.icache = new_cache(shape);
            self.cache_shape = shape;
        }
        let t = cfg.timing;
        self.issue_width = cfg.issue_width.max(1);
        self.ifetch_miss_latency = t.t_cl + t.t_bl;
        self.hit_latency = cfg.cache_hit_latency;
        self.xbar_latency = cfg.xbar_latency;
        self.line_mask = !(cfg.cache_line_bytes - 1);
        self.reg_time.clear();
        self.orphans.clear();
        self.threads.clear();
        self.cursor = 0;
        self.cycle = 0;
        self.slots_used = 0;
        self.last_completion = 0;
        self.instructions = 0;
        self.ifetch_misses = 0;
        self.compute_energy_pj = 0.0;
        self.seq = 0;
        self.stalled = None;
    }

    /// Assigns software thread `t` (streams run back-to-back in push order).
    pub fn assign_thread(&mut self, t: usize) {
        self.threads.push(t);
    }

    /// The key the frontend's *next* request would carry. While blocked this
    /// is a lower bound on everything it will ever emit (the stalled step's
    /// start cycle is `self.cycle`, unchanged by stalling, and `cycle`/`seq`
    /// only grow), so the minimum over blocked frontends is a safe drain
    /// horizon — and the awaited load's own key is strictly below it.
    #[inline]
    pub fn next_key(&self) -> ReqKey {
        ReqKey {
            cycle: self.cycle,
            pe: self.idx,
            seq: self.seq,
        }
    }

    /// Runs ahead until the PE blocks on an unresolved load or exhausts its
    /// streams. `streams[t]` is software thread `t`'s instruction stream.
    pub fn advance<I: Iterator<Item = Inst>>(
        &mut self,
        streams: &mut [I],
        sh: &mut EngineShared<'_>,
    ) -> FrontendStatus {
        loop {
            let inst = match self.stalled.take() {
                Some(i) => i,
                None => loop {
                    match self.threads.get(self.cursor) {
                        None => return FrontendStatus::Exhausted,
                        Some(&t) => match streams[t].next() {
                            Some(i) => break i,
                            None => self.cursor += 1,
                        },
                    }
                },
            };
            if !self.step(&inst, sh) {
                self.stalled = Some(inst);
                return FrontendStatus::Blocked;
            }
        }
    }

    /// Mirrors `ProcessingElement::step`, emitting DRAM requests instead of
    /// performing them. Returns `false` (and mutates nothing of the step)
    /// if a source register's load is still unresolved.
    fn step(&mut self, inst: &Inst, sh: &mut EngineShared<'_>) -> bool {
        // Operand readiness: absorb resolved in-flight sources, park on the
        // first unresolved one. This precedes the fetch so a resumed step
        // replays in full.
        let mut ready = 0u64;
        for r in inst.src_regs() {
            let i = r.0 as usize;
            let Some(&entry) = self.reg_time.get(i) else {
                continue;
            };
            let at = if entry & IN_FLIGHT == 0 {
                entry
            } else {
                let slot = (entry ^ IN_FLIGHT) as u32;
                match sh.arena.completion(slot) {
                    Some(done) => {
                        debug_assert!(done < IN_FLIGHT, "cycle collides with the tag");
                        sh.arena.free(slot);
                        self.reg_time[i] = done;
                        self.last_completion = self.last_completion.max(done);
                        done
                    }
                    None => {
                        sh.arena.set_awaited(slot);
                        return false;
                    }
                }
            };
            ready = ready.max(at);
        }

        // Instruction fetch.
        let fetch = self.icache.access(u64::from(inst.pc) * 4, false);
        let fetch_extra = if fetch.hit {
            0
        } else {
            self.ifetch_misses += 1;
            self.ifetch_miss_latency
        };

        let mut issue = self.cycle.max(ready) + fetch_extra;
        if issue == self.cycle && self.slots_used >= self.issue_width {
            issue += 1;
        }
        // All requests of this step carry the step-start cycle: the
        // reference engine's heap key when it popped this PE for this step.
        let key_cycle = self.cycle;
        let mut in_flight = None;
        let completion = match inst.op {
            Opcode::Load => {
                let line = inst.addr & self.line_mask;
                let acc = self.dcache.access(inst.addr, false);
                if let Some(wb) = acc.writeback {
                    self.emit(sh, key_cycle, wb, true, None, issue);
                }
                if acc.hit {
                    issue + self.hit_latency
                } else {
                    let slot = sh.arena.alloc(self.idx);
                    self.emit(sh, key_cycle, line, false, Some(slot), issue);
                    in_flight = Some(slot);
                    0
                }
            }
            Opcode::Store => {
                let line = inst.addr & self.line_mask;
                let acc = self.dcache.access(inst.addr, true);
                if let Some(wb) = acc.writeback {
                    self.emit(sh, key_cycle, wb, true, None, issue);
                }
                if !acc.hit {
                    self.emit(sh, key_cycle, line, false, None, issue);
                }
                issue + 1
            }
            op => issue + exec_latency(op),
        };

        if let Some(dst) = inst.dst_reg() {
            let i = dst.0 as usize;
            if i >= self.reg_time.len() {
                self.reg_time.resize(i + 1, 0);
            }
            // A new def shadows any in-flight load on the same id; its
            // completion still bounds the makespan, so orphan (or fold) it.
            let old = self.reg_time[i];
            if old & IN_FLIGHT != 0 {
                let slot = (old ^ IN_FLIGHT) as u32;
                match sh.arena.completion(slot) {
                    Some(done) => {
                        sh.arena.free(slot);
                        self.last_completion = self.last_completion.max(done);
                    }
                    None => self.orphans.push(slot),
                }
            }
            self.reg_time[i] = match in_flight {
                Some(slot) => IN_FLIGHT | u64::from(slot),
                None => {
                    debug_assert!(completion < IN_FLIGHT, "cycle collides with the tag");
                    completion
                }
            };
        } else if let Some(slot) = in_flight {
            self.orphans.push(slot);
        }
        self.compute_energy_pj += sh.energy.op_energy_pj(inst.op);
        self.instructions += 1;
        if issue == self.cycle {
            self.slots_used += 1;
        } else {
            self.cycle = issue;
            self.slots_used = 1;
        }
        if self.slots_used >= self.issue_width {
            self.cycle += 1;
            self.slots_used = 0;
        }
        if in_flight.is_none() {
            self.last_completion = self.last_completion.max(completion);
        }
        true
    }

    #[inline]
    fn emit(
        &mut self,
        sh: &mut EngineShared<'_>,
        key_cycle: u64,
        addr: u64,
        write: bool,
        slot: Option<u32>,
        issue: u64,
    ) {
        let (vault, bank, row) = sh.geometry.map(addr);
        let key = ReqKey {
            cycle: key_cycle,
            pe: self.idx,
            seq: self.seq,
        };
        self.seq += 1;
        sh.queues.push(QueuedReq {
            key,
            now: issue + self.xbar_latency,
            row,
            vault: vault as u32,
            bank: bank as u32,
            write,
            slot,
        });
    }

    /// Folds the completions of never-consumed loads into the makespan and
    /// releases their slots. Call after the final drain resolved everything.
    pub fn sweep(&mut self, arena: &mut LoadArena) {
        for entry in &mut self.reg_time {
            if *entry & IN_FLIGHT != 0 {
                let slot = (*entry ^ IN_FLIGHT) as u32;
                let done = arena
                    .completion(slot)
                    .expect("final drain resolves every in-flight load");
                self.last_completion = self.last_completion.max(done);
                arena.free(slot);
                *entry = done;
            }
        }

        for slot in self.orphans.drain(..) {
            let done = arena
                .completion(slot)
                .expect("final drain resolves every orphaned load");
            self.last_completion = self.last_completion.max(done);
            arena.free(slot);
        }
    }

    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    pub fn finish_cycle(&self) -> u64 {
        self.last_completion
    }

    pub fn dcache_stats(&self) -> CacheStats {
        self.dcache.stats()
    }

    pub fn icache_stats(&self) -> CacheStats {
        self.icache.stats()
    }

    pub fn compute_energy_pj(&self) -> f64 {
        self.compute_energy_pj
    }
}
