//! Vaulted 3D-stacked DRAM timing and counters.
//!
//! The stacked memory is partitioned into vertical *vaults*, each with its
//! own controller in the logic layer (Section 2.2 of the paper). Within a
//! vault there is one bank per stacked layer. The model is a resource
//! reservation scheme: every access computes its completion time from the
//! bank's next-free cycle and the closed/open-row timing, in O(1).
//!
//! The module is split along the machine's own seams:
//!
//! - [`DramGeometry`] — the immutable address mapping, validated once at
//!   construction and hoisted out of the per-access hot path (power-of-two
//!   vault/bank counts map with shifts and masks instead of divisions),
//! - [`VaultState`] — one vault's banks and data bus plus the timing math
//!   for a single burst; vaults share no state with each other,
//! - [`DramModel`] — the whole stack: geometry + all vaults + the shared
//!   event counters.
//!
//! The phase-split engine exploits the vault independence directly: it
//! routes requests with [`DramGeometry::map`] up front and drains each
//! vault's queue through [`DramModel::access_mapped`] separately.
//! [`DramModel::access`] is the sequential composition of the same two
//! steps, so both engines perform identical arithmetic per access.

use crate::config::{ArchConfig, DramTiming, RowPolicy};

/// DRAM event counters (inputs to the energy model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read bursts served.
    pub reads: u64,
    /// Write bursts served.
    pub writes: u64,
    /// Row activations.
    pub activations: u64,
    /// Row-buffer hits (open-row policy only).
    pub row_hits: u64,
    /// Row-buffer conflicts: open-row accesses that found a *different*
    /// row open and paid a precharge before activating. Always zero under
    /// the closed-row policy (every access precharges by design, so no
    /// access ever conflicts with a stale open row).
    pub conflicts: u64,
    /// Total cycles requests spent queued behind busy banks.
    pub queue_cycles: u64,
}

impl DramStats {
    /// Total bursts.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }
}

/// Immutable address-mapping geometry, computed and validated once at
/// construction. Row-buffer-sized blocks interleave across vaults, then
/// across banks — the HMC-style mapping that spreads streams for maximum
/// vault-level parallelism.
///
/// Vault and bank counts are cached here so the per-access path never
/// re-reads `Vec` lengths, and power-of-two counts (the Table 3 defaults:
/// 32 vaults × 8 layers) take a shift/mask fast path. Shifts and masks
/// compute exactly the same quotients and remainders as the general
/// divisions, so the mapping is identical on both paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramGeometry {
    vaults: u64,
    banks_per_vault: u64,
    row_shift: u32,
    /// `log2(vaults)` when the vault count is a power of two.
    vault_shift: Option<u32>,
    /// `log2(banks_per_vault)` when the layer count is a power of two.
    bank_shift: Option<u32>,
}

impl DramGeometry {
    /// Derives the geometry from an architecture configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero vaults/layers or a non-power-of-two row buffer — the
    /// same invariants `ArchConfig::validate` reports as errors, re-asserted
    /// here because this is the single point all address math flows through.
    pub fn new(cfg: &ArchConfig) -> Self {
        assert!(cfg.vaults > 0, "need at least one vault");
        assert!(cfg.dram_layers > 0, "need at least one DRAM layer");
        assert!(
            cfg.row_buffer_bytes.is_power_of_two(),
            "row buffer must be a power of two"
        );
        let vaults = cfg.vaults as u64;
        let banks = cfg.dram_layers as u64;
        DramGeometry {
            vaults,
            banks_per_vault: banks,
            row_shift: cfg.row_buffer_bytes.trailing_zeros(),
            vault_shift: vaults.is_power_of_two().then(|| vaults.trailing_zeros()),
            bank_shift: banks.is_power_of_two().then(|| banks.trailing_zeros()),
        }
    }

    /// Number of vaults.
    pub fn num_vaults(&self) -> usize {
        self.vaults as usize
    }

    /// Banks per vault (one per stacked layer).
    pub fn banks_per_vault(&self) -> usize {
        self.banks_per_vault as usize
    }

    /// Maps a byte address to (vault, bank, row).
    #[inline]
    pub fn map(&self, addr: u64) -> (usize, usize, u64) {
        let block = addr >> self.row_shift;
        let (vault, per_vault) = match self.vault_shift {
            Some(s) => ((block & (self.vaults - 1)) as usize, block >> s),
            None => ((block % self.vaults) as usize, block / self.vaults),
        };
        let (bank, row) = match self.bank_shift {
            Some(s) => (
                (per_vault & (self.banks_per_vault - 1)) as usize,
                per_vault >> s,
            ),
            None => (
                (per_vault % self.banks_per_vault) as usize,
                per_vault / self.banks_per_vault,
            ),
        };
        (vault, bank, row)
    }
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    free_at: u64,
    open_row: Option<u64>,
}

const IDLE_BANK: Bank = Bank {
    free_at: 0,
    open_row: None,
};

/// One vault: its banks, its data bus, and its burst counter. All
/// cross-vault coupling happens in whichever engine decides the order
/// accesses reach [`VaultState::access`].
#[derive(Debug, Clone)]
pub struct VaultState {
    banks: Vec<Bank>,
    /// Data bus within the vault: one burst at a time.
    bus_free_at: u64,
    /// Bursts served by this vault (telemetry: vault load balance).
    accesses: u64,
}

impl VaultState {
    fn new(banks: usize) -> Self {
        VaultState {
            banks: vec![IDLE_BANK; banks],
            bus_free_at: 0,
            accesses: 0,
        }
    }

    /// Returns the vault to its power-on state without reallocating.
    fn reset(&mut self) {
        self.banks.fill(IDLE_BANK);
        self.bus_free_at = 0;
        self.accesses = 0;
    }

    /// Serves one pre-mapped burst at cycle `now`; returns the cycle the
    /// data is available (read) or accepted (write). This is the single
    /// copy of the DRAM timing math — every engine funnels through it.
    #[inline]
    #[allow(clippy::too_many_arguments)] // the full timing context, flat on purpose: this is the hot path
    pub fn access(
        &mut self,
        bank: usize,
        row: u64,
        write: bool,
        now: u64,
        timing: &DramTiming,
        policy: RowPolicy,
        stats: &mut DramStats,
    ) -> u64 {
        let t = timing;
        self.accesses += 1;
        let bank = &mut self.banks[bank];

        let (access_latency, hold_extra) = match policy {
            RowPolicy::Closed => {
                // ACT + CAS (+ burst); auto-precharge after.
                stats.activations += 1;
                let lat = t.t_rcd + t.t_cl + t.t_bl;
                (lat, if write { t.t_wr + t.t_rp } else { t.t_rp })
            }
            RowPolicy::Open => {
                if bank.open_row == Some(row) {
                    stats.row_hits += 1;
                    let lat = t.t_cl + t.t_bl;
                    (lat, if write { t.t_wr } else { 0 })
                } else {
                    // Precharge the old row (if any) then activate.
                    stats.activations += 1;
                    if bank.open_row.is_some() {
                        stats.conflicts += 1;
                    }
                    let pre = if bank.open_row.is_some() { t.t_rp } else { 0 };
                    let lat = pre + t.t_rcd + t.t_cl + t.t_bl;
                    (lat, if write { t.t_wr } else { 0 })
                }
            }
        };

        // The vault data bus is only busy for the burst (tBL) at the *end*
        // of the access, so accesses to different banks of one vault overlap
        // (bank-level parallelism). Delay the start just enough that this
        // access's burst begins after the previous burst ends.
        let bus_constraint = (self.bus_free_at + t.t_bl).saturating_sub(access_latency);
        let start = now.max(bank.free_at).max(bus_constraint);
        stats.queue_cycles += start - now;

        if write {
            stats.writes += 1;
        } else {
            stats.reads += 1;
        }
        bank.free_at = start + access_latency + hold_extra;
        bank.open_row = match policy {
            RowPolicy::Closed => None,
            RowPolicy::Open => Some(row),
        };
        self.bus_free_at = start + access_latency;
        start + access_latency
    }
}

/// The memory-side model: address mapping, bank timing, counters.
#[derive(Debug, Clone)]
pub struct DramModel {
    geometry: DramGeometry,
    vaults: Vec<VaultState>,
    timing: DramTiming,
    policy: RowPolicy,
    stats: DramStats,
}

impl DramModel {
    /// Builds the DRAM model for an architecture configuration.
    pub fn new(cfg: &ArchConfig) -> Self {
        let geometry = DramGeometry::new(cfg);
        DramModel {
            geometry,
            vaults: (0..geometry.num_vaults())
                .map(|_| VaultState::new(geometry.banks_per_vault()))
                .collect(),
            timing: cfg.timing,
            policy: cfg.row_policy,
            stats: DramStats::default(),
        }
    }

    /// Reinitializes the model for `cfg`, reusing bank allocations when the
    /// geometry is unchanged (the common case when a campaign worker reuses
    /// one engine across jobs).
    pub fn reset_for(&mut self, cfg: &ArchConfig) {
        let geometry = DramGeometry::new(cfg);
        if geometry == self.geometry {
            for v in &mut self.vaults {
                v.reset();
            }
        } else {
            self.geometry = geometry;
            self.vaults = (0..geometry.num_vaults())
                .map(|_| VaultState::new(geometry.banks_per_vault()))
                .collect();
        }
        self.timing = cfg.timing;
        self.policy = cfg.row_policy;
        self.stats = DramStats::default();
    }

    /// The address-mapping geometry.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// Maps a byte address to (vault, bank, row). See [`DramGeometry::map`].
    #[inline]
    pub fn map(&self, addr: u64) -> (usize, usize, u64) {
        self.geometry.map(addr)
    }

    /// Issues one burst access at cycle `now`; returns the cycle the data is
    /// available (read) or accepted (write).
    pub fn access(&mut self, addr: u64, write: bool, now: u64) -> u64 {
        let (v, b, row) = self.geometry.map(addr);
        self.access_mapped(v, b, row, write, now)
    }

    /// Issues a pre-mapped burst (the engine's merged drain path, which
    /// has already routed the request with [`DramGeometry::map`]).
    #[inline]
    pub fn access_mapped(
        &mut self,
        vault: usize,
        bank: usize,
        row: u64,
        write: bool,
        now: u64,
    ) -> u64 {
        self.vaults[vault].access(
            bank,
            row,
            write,
            now,
            &self.timing,
            self.policy,
            &mut self.stats,
        )
    }

    /// Accumulated counters.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Number of vaults.
    pub fn num_vaults(&self) -> usize {
        self.geometry.num_vaults()
    }

    /// Bursts served per vault, in vault order — the load-balance view
    /// the telemetry layer surfaces via `SimReport::vault_accesses`.
    pub fn vault_accesses(&self) -> Vec<u64> {
        self.vaults.iter().map(|v| v.accesses).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ArchConfig {
        ArchConfig::paper_default()
    }

    #[test]
    fn mapping_spreads_blocks_across_vaults() {
        let m = DramModel::new(&cfg());
        let (v0, _, _) = m.map(0);
        let (v1, _, _) = m.map(256);
        let (v2, _, _) = m.map(512);
        assert_eq!(v0, 0);
        assert_eq!(v1, 1);
        assert_eq!(v2, 2);
        // Same 256B block -> same vault.
        let (va, ba, ra) = m.map(0x100);
        let (vb, bb, rb) = m.map(0x1ff);
        assert_eq!((va, ba, ra), (vb, bb, rb));
    }

    #[test]
    fn pow2_fast_path_matches_general_division() {
        // The paper default (32 vaults × 8 layers) takes the shift/mask
        // path; forcing the division path on the same shape must produce
        // the same mapping for every address.
        let fast = DramGeometry::new(&cfg());
        let slow = DramGeometry {
            vault_shift: None,
            bank_shift: None,
            ..fast
        };
        for addr in (0..1u64 << 22).step_by(37) {
            assert_eq!(fast.map(addr), slow.map(addr), "addr {addr:#x}");
        }
    }

    #[test]
    fn non_pow2_geometry_maps_by_division() {
        let c = ArchConfig {
            vaults: 12,
            dram_layers: 3,
            ..cfg()
        };
        let g = DramGeometry::new(&c);
        assert_eq!(g.num_vaults(), 12);
        assert_eq!(g.banks_per_vault(), 3);
        // Block b lands in vault b % 12, bank (b / 12) % 3, row b / 36.
        let (v, b, r) = g.map(256 * (12 * 3 * 5 + 12 * 2 + 7));
        assert_eq!((v, b, r), (7, 2, 5));
    }

    #[test]
    fn reset_for_clears_state_and_retimes_cold() {
        let mut m = DramModel::new(&cfg());
        m.access(0, true, 0);
        m.access(8, false, 100);
        assert!(m.stats().accesses() > 0);
        m.reset_for(&cfg());
        assert_eq!(m.stats(), DramStats::default());
        assert!(m.vault_accesses().iter().all(|&a| a == 0));
        // Timing restarts from a cold bank.
        let t = DramTiming::default();
        assert_eq!(m.access(0, false, 0), t.t_rcd + t.t_cl + t.t_bl);
        // Shape changes rebuild the vault array.
        m.reset_for(&ArchConfig { vaults: 4, ..cfg() });
        assert_eq!(m.num_vaults(), 4);
        assert_eq!(m.vault_accesses().len(), 4);
    }

    #[test]
    fn closed_row_latency_is_fixed() {
        let mut m = DramModel::new(&cfg());
        let t = DramTiming::default();
        let done = m.access(0, false, 100);
        assert_eq!(done, 100 + t.t_rcd + t.t_cl + t.t_bl);
        assert_eq!(m.stats().activations, 1);
        assert_eq!(m.stats().reads, 1);
    }

    #[test]
    fn bank_conflict_queues_second_access() {
        let mut m = DramModel::new(&cfg());
        let t = DramTiming::default();
        let first = m.access(0, false, 0);
        // Same 256B block -> same bank; must wait for precharge too.
        let second = m.access(8, false, 0);
        assert!(second > first, "conflicting access must queue");
        assert_eq!(
            second,
            (t.t_rcd + t.t_cl + t.t_bl + t.t_rp) + (t.t_rcd + t.t_cl + t.t_bl)
        );
        assert!(m.stats().queue_cycles > 0);
    }

    #[test]
    fn different_vaults_proceed_in_parallel() {
        let mut m = DramModel::new(&cfg());
        let a = m.access(0, false, 0); // vault 0
        let b = m.access(256, false, 0); // vault 1
        assert_eq!(a, b, "independent vaults have identical latency");
    }

    #[test]
    fn open_row_policy_rewards_locality() {
        let mut closed = DramModel::new(&cfg());
        let open_cfg = ArchConfig {
            row_policy: RowPolicy::Open,
            ..cfg()
        };
        let mut open = DramModel::new(&open_cfg);
        // Touch the same row repeatedly, sequential in time.
        let mut t_closed = 0;
        let mut t_open = 0;
        for i in 0..8 {
            t_closed = closed.access(8 * i, false, t_closed);
            t_open = open.access(8 * i, false, t_open);
        }
        assert!(t_open < t_closed, "open-row should win on row locality");
        assert_eq!(open.stats().row_hits, 7);
        assert_eq!(open.stats().activations, 1);
        assert_eq!(closed.stats().activations, 8);
    }

    #[test]
    fn writes_hold_banks_longer_than_reads() {
        let mut m = DramModel::new(&cfg());
        m.access(0, true, 0);
        let after_write = m.access(8, false, 0);
        let mut m2 = DramModel::new(&cfg());
        m2.access(0, false, 0);
        let after_read = m2.access(8, false, 0);
        assert!(
            after_write > after_read,
            "write recovery must delay the bank"
        );
    }

    #[test]
    fn open_row_conflicts_are_counted() {
        let c = ArchConfig {
            row_policy: RowPolicy::Open,
            ..cfg()
        };
        let mut m = DramModel::new(&c);
        // Same (vault, bank), next row over.
        let stride = c.row_buffer_bytes * (c.vaults * c.dram_layers) as u64;
        m.access(0, false, 0); // cold activation — no row open yet
        m.access(stride, false, 0); // different row open → conflict
        m.access(stride, false, 0); // row hit
        let s = m.stats();
        assert_eq!(s.conflicts, 1);
        assert_eq!(s.row_hits, 1);
        assert_eq!(s.activations, 2);
        // Closed policy precharges every access; conflicts stay zero.
        let mut closed = DramModel::new(&cfg());
        closed.access(0, false, 0);
        closed.access(stride, false, 0);
        assert_eq!(closed.stats().conflicts, 0);
    }

    #[test]
    fn vault_accesses_track_load_balance() {
        let mut m = DramModel::new(&cfg());
        let n = m.num_vaults();
        // One row-buffer-sized stride per access walks the vaults
        // round-robin; two full rounds load every vault equally.
        for i in 0..(2 * n as u64) {
            m.access(i * 256, false, 0);
        }
        let per = m.vault_accesses();
        assert_eq!(per.len(), n);
        assert!(per.iter().all(|&a| a == 2), "{per:?}");
        assert_eq!(per.iter().sum::<u64>(), m.stats().accesses());
    }

    #[test]
    fn stats_accumulate() {
        let mut m = DramModel::new(&cfg());
        for i in 0..10u64 {
            m.access(i * 4096, i % 2 == 0, 0);
        }
        let s = m.stats();
        assert_eq!(s.accesses(), 10);
        assert_eq!(s.reads, 5);
        assert_eq!(s.writes, 5);
    }
}
