//! Memory-system configuration (the memory half of Table I).

use crate::fault::FaultInjection;

/// Geometry and latency parameters for one cache level.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Access latency in core cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets for a given line size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn sets(&self, line_bytes: u64) -> u64 {
        let lines = self.capacity / line_bytes;
        assert_eq!(
            self.capacity % line_bytes,
            0,
            "capacity must be a multiple of the line size"
        );
        assert_eq!(lines % self.ways as u64, 0, "lines must divide by ways");
        lines / self.ways as u64
    }
}

/// Full memory-system configuration.
///
/// The default, [`MemConfig::a72_hybrid`], reproduces Table I: A72-like
/// cache latencies over a hybrid 2 GB DRAM + 2 GB NVM space with a
/// 128-slot persistent on-DIMM buffer. Latencies are expressed in core
/// cycles at the paper's 3 GHz (1 ns = 3 cycles).
///
/// # Example
///
/// ```
/// use ede_mem::MemConfig;
///
/// let cfg = MemConfig::a72_hybrid();
/// assert_eq!(cfg.persist_slots, 128);
/// assert_eq!(cfg.nvm_line_bytes, 256);
/// assert_eq!(cfg.nvm_write_latency, 1500); // 500 ns at 3 GHz
/// assert!(cfg.is_nvm(cfg.nvm_base));
/// assert!(!cfg.is_nvm(cfg.dram_base));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MemConfig {
    /// Cache line size in bytes (all levels).
    pub line_bytes: u64,
    /// L1 data cache (Table I: 48 KB, 3-way, 1-cycle).
    pub l1d: CacheConfig,
    /// L2 cache (Table I: 256 KB, 16-way, 12-cycle).
    pub l2: CacheConfig,
    /// L3 cache (Table I: 1 MB/core, 16-way, 20-cycle).
    pub l3: CacheConfig,
    /// Base virtual address of the DRAM range.
    pub dram_base: u64,
    /// Size of the DRAM range in bytes.
    pub dram_size: u64,
    /// Base virtual address of the NVM range.
    pub nvm_base: u64,
    /// Size of the NVM range in bytes.
    pub nvm_size: u64,
    /// DRAM access latency in cycles (row activation + CAS + transfer for
    /// DDR4-2400, folded into one number).
    pub dram_latency: u64,
    /// NVM media read latency in cycles (Table I: 150 ns).
    pub nvm_read_latency: u64,
    /// NVM media write latency in cycles (Table I: 500 ns).
    pub nvm_write_latency: u64,
    /// NVM device line size in bytes (Table I: 256 B); the persist
    /// buffer's coalescing granularity.
    pub nvm_line_bytes: u64,
    /// Persistent on-DIMM buffer slots (Table I: 128).
    pub persist_slots: usize,
    /// Concurrent media writers draining the persist buffer (device write
    /// parallelism).
    pub media_writers: usize,
    /// Core-to-controller path latency in cycles: the cost of a persist
    /// acknowledgement when the buffer has space.
    pub controller_latency: u64,
    /// Maximum in-flight requests the system accepts (MSHR budget).
    pub max_outstanding: usize,
    /// Sequential lines prefetched into the L2 on each demand miss to
    /// memory (0 disables the prefetcher; the calibrated Table I model
    /// runs without it).
    pub prefetch_next_lines: usize,
    /// Deliberate memory-system bug to inject (checker self-test).
    /// Pipeline and media variants are ignored by the memory system.
    pub fault: Option<FaultInjection>,
}

impl MemConfig {
    /// The Table I configuration.
    pub fn a72_hybrid() -> MemConfig {
        MemConfig {
            line_bytes: 64,
            l1d: CacheConfig {
                capacity: 48 * 1024,
                ways: 3,
                latency: 1,
            },
            l2: CacheConfig {
                capacity: 256 * 1024,
                ways: 16,
                latency: 12,
            },
            l3: CacheConfig {
                capacity: 1024 * 1024,
                ways: 16,
                latency: 20,
            },
            dram_base: 0x0000_0000,
            dram_size: 2 << 30,
            nvm_base: 0x1_0000_0000,
            nvm_size: 2 << 30,
            // ~60 ns effective DDR4-2400 random access at 3 GHz.
            dram_latency: 180,
            nvm_read_latency: 450,
            nvm_write_latency: 1500,
            nvm_line_bytes: 256,
            persist_slots: 128,
            media_writers: 6,
            controller_latency: 20,
            max_outstanding: 24,
            prefetch_next_lines: 0,
            fault: None,
        }
    }

    /// Whether `addr` falls in the NVM range.
    pub fn is_nvm(&self, addr: u64) -> bool {
        addr >= self.nvm_base && addr < self.nvm_base + self.nvm_size
    }

    /// The cache-line-aligned address containing `addr`.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }

    /// The NVM-device-line-aligned address containing `addr`.
    pub fn nvm_line_of(&self, addr: u64) -> u64 {
        addr & !(self.nvm_line_bytes - 1)
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::a72_hybrid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_geometry() {
        let cfg = MemConfig::a72_hybrid();
        assert_eq!(cfg.l1d.sets(cfg.line_bytes), 256);
        assert_eq!(cfg.l2.sets(cfg.line_bytes), 256);
        assert_eq!(cfg.l3.sets(cfg.line_bytes), 1024);
    }

    #[test]
    fn address_ranges_disjoint() {
        let cfg = MemConfig::a72_hybrid();
        assert!(cfg.dram_base + cfg.dram_size <= cfg.nvm_base);
        assert!((cfg.dram_base..cfg.dram_base + cfg.dram_size).contains(&0x1000));
        assert!(!cfg.is_nvm(0x1000));
        assert!(cfg.is_nvm(cfg.nvm_base + 0x1000));
    }

    #[test]
    fn alignment_helpers() {
        let cfg = MemConfig::a72_hybrid();
        assert_eq!(cfg.line_of(0x1234), 0x1200);
        assert_eq!(cfg.nvm_line_of(0x1234), 0x1200);
        assert_eq!(cfg.nvm_line_of(0x12f4), 0x1200);
        assert_eq!(cfg.line_of(0x12f4), 0x12c0);
    }

    #[test]
    #[should_panic(expected = "must be a multiple")]
    fn bad_geometry_panics() {
        let c = CacheConfig {
            capacity: 1000,
            ways: 3,
            latency: 1,
        };
        let _ = c.sets(64);
    }
}
