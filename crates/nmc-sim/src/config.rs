//! Architectural configuration — the `a` of `IPC(p, a)`.

use crate::components::energy::EnergyModel;

/// DRAM row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowPolicy {
    /// Precharge immediately after every access (Table 3 default).
    Closed,
    /// Keep the row open; row hits skip activation.
    Open,
}

/// DRAM timing parameters, in PE core cycles.
///
/// Expressing DRAM timings in core cycles keeps the simulator single-clock;
/// the defaults correspond to HMC-class latencies at the 1.25 GHz core
/// clock of Table 3 (e.g. `t_rcd` = 17 cycles ≈ 13.6 ns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// Activate-to-column delay (tRCD).
    pub t_rcd: u64,
    /// Column access latency (tCL).
    pub t_cl: u64,
    /// Burst transfer time for one cache line (tBL).
    pub t_bl: u64,
    /// Precharge time (tRP).
    pub t_rp: u64,
    /// Write recovery time added to writes (tWR).
    pub t_wr: u64,
}

impl Default for DramTiming {
    fn default() -> Self {
        DramTiming {
            t_rcd: 17,
            t_cl: 17,
            t_bl: 4,
            t_rp: 17,
            t_wr: 19,
        }
    }
}

/// The architectural design configuration of the simulated NMC system.
///
/// Field defaults ([`ArchConfig::paper_default`]) reproduce Table 3 of the
/// paper; every field in the Table 1 "NMC architectural features" list is
/// also exported as an ML feature by [`ArchConfig::to_features`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArchConfig {
    /// Number of near-memory processing elements.
    pub num_pes: usize,
    /// Instructions each PE can issue per cycle (Table 3 cores are
    /// single-issue; wider cores model beefier logic-layer designs).
    pub issue_width: usize,
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Cache line size in bytes (power of two).
    pub cache_line_bytes: u64,
    /// Number of cache lines in each private L1 (data and instruction alike).
    pub cache_lines: usize,
    /// L1 associativity (ways); clamped to `cache_lines`.
    pub cache_assoc: usize,
    /// L1 hit latency in cycles.
    pub cache_hit_latency: u64,
    /// Number of DRAM vaults.
    pub vaults: usize,
    /// Stacked DRAM layers; one bank per layer per vault.
    pub dram_layers: usize,
    /// Total DRAM capacity in bytes.
    pub dram_size_bytes: u64,
    /// Row-buffer size in bytes.
    pub row_buffer_bytes: u64,
    /// Row management policy.
    pub row_policy: RowPolicy,
    /// DRAM timing parameters.
    pub timing: DramTiming,
    /// Fixed crossbar/NoC latency from a PE to any vault, in cycles.
    pub xbar_latency: u64,
}

impl ArchConfig {
    /// The NMC system of Table 3: 32 in-order PEs @ 1.25 GHz, 2-way L1 of
    /// two 64 B lines, 32 vaults × 8 layers, 4 GB, 256 B row buffer,
    /// closed-row policy.
    pub fn paper_default() -> Self {
        ArchConfig {
            num_pes: 32,
            issue_width: 1,
            freq_ghz: 1.25,
            cache_line_bytes: 64,
            cache_lines: 2,
            cache_assoc: 2,
            cache_hit_latency: 1,
            vaults: 32,
            dram_layers: 8,
            dram_size_bytes: 4 << 30,
            row_buffer_bytes: 256,
            row_policy: RowPolicy::Closed,
            timing: DramTiming::default(),
            xbar_latency: 3,
        }
    }

    /// Validates internal consistency, panicking on nonsense configurations.
    ///
    /// # Panics
    ///
    /// Panics if any structural parameter is zero or a required power of two
    /// is not one.
    pub fn validate(&self) {
        assert!(self.num_pes > 0, "need at least one PE");
        assert!(self.issue_width > 0, "issue width must be at least 1");
        assert!(self.freq_ghz > 0.0, "frequency must be positive");
        assert!(
            self.cache_line_bytes.is_power_of_two(),
            "cache line size must be a power of two"
        );
        assert!(self.cache_lines > 0, "cache needs at least one line");
        assert!(self.cache_assoc > 0, "associativity must be at least 1");
        assert!(self.vaults > 0, "need at least one vault");
        assert!(self.dram_layers > 0, "need at least one DRAM layer");
        assert!(
            self.row_buffer_bytes >= self.cache_line_bytes,
            "row buffer smaller than a cache line"
        );
        assert!(
            self.row_buffer_bytes.is_power_of_two(),
            "row buffer must be a power of two"
        );
    }

    /// Names of the architectural features fed to the ML model, aligned
    /// with [`ArchConfig::to_features`]. These mirror the Table 1 NMC
    /// architectural feature list.
    pub fn feature_names() -> Vec<String> {
        [
            "arch.num_pes",
            "arch.issue_width",
            "arch.freq_ghz",
            "arch.cache_line_bytes",
            "arch.cache_lines",
            "arch.cache_assoc",
            "arch.vaults",
            "arch.dram_layers",
            "arch.log2_dram_bytes",
            "arch.row_buffer_bytes",
            "arch.closed_row",
            "arch.t_rcd",
            "arch.t_cl",
            "arch.xbar_latency",
        ]
        .into_iter()
        .map(String::from)
        .collect()
    }

    /// Encodes the configuration as an ML feature vector.
    pub fn to_features(&self) -> Vec<f64> {
        vec![
            self.num_pes as f64,
            self.issue_width as f64,
            self.freq_ghz,
            self.cache_line_bytes as f64,
            self.cache_lines as f64,
            self.cache_assoc as f64,
            self.vaults as f64,
            self.dram_layers as f64,
            (self.dram_size_bytes as f64).log2(),
            self.row_buffer_bytes as f64,
            match self.row_policy {
                RowPolicy::Closed => 1.0,
                RowPolicy::Open => 0.0,
            },
            self.timing.t_rcd as f64,
            self.timing.t_cl as f64,
            self.xbar_latency as f64,
        ]
    }

    /// Seconds per core cycle.
    pub fn cycle_seconds(&self) -> f64 {
        1e-9 / self.freq_ghz
    }

    /// PEs that take part in a run of `num_threads` software threads.
    /// Threads map round-robin onto PEs, so PEs beyond the thread count
    /// never execute; a run always has at least one PE.
    pub fn effective_pes(&self, num_threads: usize) -> usize {
        self.num_pes.min(num_threads).max(1)
    }
}

/// The part of a simulated system that a run of a given thread count
/// actually reads: the architecture with the engine's effective PE count
/// in place of `num_pes`, without the report-only `freq_ghz` and
/// `dram_size_bytes`, plus the energy model (per-event energies
/// accumulate inside the run).
///
/// Systems of one class produce the same simulated report fields for the
/// same trace — DRAM timings are in core cycles, so the clock only
/// rescales seconds, and idle PEs never run.
/// [`NmcSystem::retarget`](crate::NmcSystem::retarget) re-derives the
/// fields that do differ.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingClass {
    pes: usize,
    issue_width: usize,
    cache_line_bytes: u64,
    cache_lines: usize,
    cache_assoc: usize,
    cache_hit_latency: u64,
    vaults: usize,
    dram_layers: usize,
    row_buffer_bytes: u64,
    row_policy: RowPolicy,
    timing: DramTiming,
    xbar_latency: u64,
    energy: EnergyModel,
}

impl TimingClass {
    /// The class of `config` with energy model `energy`, for a run of
    /// `num_threads` software threads. Needs no validated configuration.
    pub fn new(config: &ArchConfig, energy: &EnergyModel, num_threads: usize) -> Self {
        // No `..`: a new field does not compile until it is classified.
        let &ArchConfig {
            num_pes: _,
            issue_width,
            freq_ghz: _,
            cache_line_bytes,
            cache_lines,
            cache_assoc,
            cache_hit_latency,
            vaults,
            dram_layers,
            dram_size_bytes: _,
            row_buffer_bytes,
            row_policy,
            timing,
            xbar_latency,
        } = config;
        TimingClass {
            pes: config.effective_pes(num_threads),
            issue_width,
            cache_line_bytes,
            cache_lines,
            cache_assoc,
            cache_hit_latency,
            vaults,
            dram_layers,
            row_buffer_bytes,
            row_policy,
            timing,
            xbar_latency,
            energy: energy.clone(),
        }
    }
}

impl Default for ArchConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table3() {
        let c = ArchConfig::paper_default();
        c.validate();
        assert_eq!(c.num_pes, 32);
        assert_eq!(c.issue_width, 1);
        assert_eq!(c.freq_ghz, 1.25);
        assert_eq!(c.cache_lines, 2);
        assert_eq!(c.cache_line_bytes, 64);
        assert_eq!(c.cache_assoc, 2);
        assert_eq!(c.vaults, 32);
        assert_eq!(c.dram_layers, 8);
        assert_eq!(c.dram_size_bytes, 4 << 30);
        assert_eq!(c.row_buffer_bytes, 256);
        assert_eq!(c.row_policy, RowPolicy::Closed);
    }

    #[test]
    fn features_align_with_names() {
        let c = ArchConfig::paper_default();
        assert_eq!(c.to_features().len(), ArchConfig::feature_names().len());
        assert!(c.to_features().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_rejected() {
        let c = ArchConfig {
            num_pes: 0,
            ..ArchConfig::paper_default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn odd_line_size_rejected() {
        let c = ArchConfig {
            cache_line_bytes: 48,
            ..ArchConfig::paper_default()
        };
        c.validate();
    }

    #[test]
    fn cycle_time_matches_frequency() {
        let c = ArchConfig::paper_default();
        assert!((c.cycle_seconds() - 0.8e-9).abs() < 1e-15);
    }
}
