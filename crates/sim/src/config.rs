//! Core and memory-hierarchy configuration, with presets resembling the
//! Intel Alder Lake hybrid processor of the paper's Tab. III.

/// The speculation model: when an instruction stops being *speculative*
/// (paper §II-B2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SpeculationModel {
    /// An instruction is speculative until it reaches the head of the ROB.
    /// The strongest model; captures *all* speculation types (the paper's
    /// default).
    #[default]
    AtCommit,
    /// An instruction is speculative until all prior branches have
    /// resolved — control-flow speculation only (noncomprehensive; used
    /// for the §IX-A6 case study).
    Control,
}

/// Configuration of one cache level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Hit latency in cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }

    /// Total number of lines (`sets * ways`) — the length of each of the
    /// flat per-line arrays backing [`crate::Cache`].
    pub fn lines(&self) -> usize {
        self.sets() * self.ways
    }

    /// Number of `u64` words in one line's metadata bitmap
    /// (`ceil(line_bytes / 64)`): one bit per byte of the line.
    pub fn meta_words_per_line(&self) -> usize {
        self.line_bytes.div_ceil(64)
    }
}

/// How ProtISA tracks memory protection (the §IX-A3 ablation).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum MemProtTracking {
    /// No memory protection tracking: all memory is always considered
    /// protected (the "disabled" variant).
    None,
    /// Per-byte protection bits shadowing the L1D; evictions forget
    /// unprotection (the paper's design, §IV-C2a).
    #[default]
    TaggedL1d,
    /// An idealized shadow memory that never forgets (the upper bound).
    PerfectShadow,
}

/// Full configuration of one simulated core.
#[derive(Clone, PartialEq, Debug)]
pub struct CoreConfig {
    /// Human-readable name (`P-core`, `E-core`).
    pub name: &'static str,
    /// Fetch/decode/rename width (instructions per cycle).
    pub fetch_width: usize,
    /// Issue width (instructions entering execution per cycle).
    pub issue_width: usize,
    /// Commit width.
    pub commit_width: usize,
    /// Reorder-buffer entries.
    pub rob_size: usize,
    /// Issue-window: how deep into the ROB the scheduler scans.
    pub iq_size: usize,
    /// Load-queue entries.
    pub lq_size: usize,
    /// Store-queue entries.
    pub sq_size: usize,
    /// Physical registers (shared integer file).
    pub phys_regs: usize,
    /// Front-end depth: cycles from fetch to rename-ready.
    pub frontend_depth: u32,
    /// Branch-misprediction redirect penalty on top of pipeline refill.
    pub redirect_penalty: u32,
    /// Number of simple ALU ports.
    pub alu_ports: usize,
    /// Number of load/store ports.
    pub mem_ports: usize,
    /// Multiplier latency.
    pub mul_latency: u32,
    /// Branch-target-buffer entries.
    pub btb_entries: usize,
    /// Return-stack-buffer entries.
    pub rsb_entries: usize,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// Private L2.
    pub l2: CacheConfig,
    /// Shared L3.
    pub l3: CacheConfig,
    /// DRAM latency.
    pub mem_latency: u32,
    /// The speculation model (paper §II-B2).
    pub speculation: SpeculationModel,
    /// ProtISA memory-protection tracking variant (§IX-A3).
    pub mem_prot: MemProtTracking,
    /// Record a per-µop pipeline trace and defense-decision audit log
    /// (see `crate::trace`). Off by default.
    pub trace: bool,
}

impl CoreConfig {
    /// A Golden Cove-like performance core (Tab. III).
    pub fn p_core() -> CoreConfig {
        CoreConfig {
            name: "P-core",
            fetch_width: 6,
            issue_width: 6,
            commit_width: 6,
            rob_size: 512,
            iq_size: 160,
            lq_size: 192,
            sq_size: 114,
            phys_regs: 280,
            frontend_depth: 6,
            redirect_penalty: 3,
            alu_ports: 5,
            mem_ports: 3,
            mul_latency: 3,
            btb_entries: 4096,
            rsb_entries: 16,
            l1d: CacheConfig {
                size_bytes: 48 * 1024,
                ways: 12,
                line_bytes: 64,
                latency: 5,
            },
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 64,
                latency: 4,
            },
            l2: CacheConfig {
                size_bytes: 1280 * 1024,
                ways: 10,
                line_bytes: 64,
                latency: 15,
            },
            l3: CacheConfig {
                size_bytes: 30 * 1024 * 1024,
                ways: 12,
                line_bytes: 64,
                latency: 45,
            },
            mem_latency: 200,
            speculation: SpeculationModel::AtCommit,
            mem_prot: MemProtTracking::TaggedL1d,
            trace: false,
        }
    }

    /// A Gracemont-like efficiency core (Tab. III). Its smaller ROB means
    /// shorter speculation windows, which is why all defenses show lower
    /// overhead here (paper §IX-A5).
    pub fn e_core() -> CoreConfig {
        CoreConfig {
            name: "E-core",
            fetch_width: 6,
            issue_width: 6,
            commit_width: 6,
            rob_size: 256,
            iq_size: 96,
            lq_size: 80,
            sq_size: 50,
            phys_regs: 213,
            frontend_depth: 5,
            redirect_penalty: 2,
            alu_ports: 4,
            mem_ports: 2,
            mul_latency: 3,
            btb_entries: 4096,
            rsb_entries: 16,
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 64,
                latency: 4,
            },
            l1i: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 8,
                line_bytes: 64,
                latency: 4,
            },
            l2: CacheConfig {
                size_bytes: 2 * 1024 * 1024,
                ways: 8,
                line_bytes: 64,
                latency: 13,
            },
            l3: CacheConfig {
                size_bytes: 30 * 1024 * 1024,
                ways: 12,
                line_bytes: 64,
                latency: 45,
            },
            mem_latency: 200,
            speculation: SpeculationModel::AtCommit,
            mem_prot: MemProtTracking::TaggedL1d,
            trace: false,
        }
    }

    /// The E-core variant used for multi-threaded runs: a 256 KiB private
    /// L2 slice instead of the full 2 MiB (Tab. III footnote).
    pub fn e_core_mt() -> CoreConfig {
        let mut cfg = CoreConfig::e_core();
        cfg.l2.size_bytes = 256 * 1024;
        cfg
    }

    /// A tiny configuration for fast unit tests.
    pub fn test_tiny() -> CoreConfig {
        CoreConfig {
            name: "tiny",
            fetch_width: 2,
            issue_width: 2,
            commit_width: 2,
            rob_size: 32,
            iq_size: 16,
            lq_size: 8,
            sq_size: 8,
            phys_regs: 64,
            frontend_depth: 3,
            redirect_penalty: 1,
            alu_ports: 2,
            mem_ports: 1,
            mul_latency: 3,
            btb_entries: 64,
            rsb_entries: 8,
            l1d: CacheConfig {
                size_bytes: 1024,
                ways: 2,
                line_bytes: 64,
                latency: 2,
            },
            l1i: CacheConfig {
                size_bytes: 2048,
                ways: 2,
                line_bytes: 64,
                latency: 1,
            },
            l2: CacheConfig {
                size_bytes: 8 * 1024,
                ways: 4,
                line_bytes: 64,
                latency: 8,
            },
            l3: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 4,
                line_bytes: 64,
                latency: 20,
            },
            mem_latency: 60,
            speculation: SpeculationModel::AtCommit,
            mem_prot: MemProtTracking::TaggedL1d,
            trace: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        for cfg in [
            CoreConfig::p_core(),
            CoreConfig::e_core(),
            CoreConfig::test_tiny(),
        ] {
            assert!(cfg.rob_size >= cfg.iq_size);
            assert!(cfg.phys_regs > 32);
            assert!(cfg.l1d.sets() > 0);
            assert_eq!(
                cfg.l1d.sets() * cfg.l1d.ways * cfg.l1d.line_bytes,
                cfg.l1d.size_bytes
            );
        }
    }

    #[test]
    fn paper_table_iii_parameters() {
        let p = CoreConfig::p_core();
        assert_eq!(p.rob_size, 512);
        assert_eq!(p.l1i.size_bytes, 32 * 1024); // Tab. III
        assert_eq!(CoreConfig::e_core().l1i.size_bytes, 64 * 1024);
        assert_eq!((p.lq_size, p.sq_size), (192, 114));
        assert_eq!(p.l1d.size_bytes, 48 * 1024);
        assert_eq!(p.l1d.ways, 12);
        let e = CoreConfig::e_core();
        assert_eq!(e.rob_size, 256);
        assert_eq!((e.lq_size, e.sq_size), (80, 50));
        assert_eq!(e.l1d.size_bytes, 32 * 1024);
        assert_eq!(CoreConfig::e_core_mt().l2.size_bytes, 256 * 1024);
    }
}
