//! Counters describing the work done by the software MMU.
//!
//! Every experiment about snapshot cost in the paper reduces to "how many
//! pages were copied, and when". [`MemStats`] makes those costs observable:
//! the benchmark harnesses assert on these counters (e.g. experiment E3:
//! copied bytes scale with pages *touched*, not address-space size).

/// Cumulative counters for one address-space handle.
///
/// Counters are plain data: cloning an address space (taking a snapshot)
/// copies the counters, so each lineage keeps its own running totals. Use
/// [`MemStats::delta`] to measure a window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Pages copied because they were shared with a snapshot (CoW breaks).
    pub cow_page_copies: u64,
    /// Radix-tree interior/leaf nodes copied on the write path.
    pub node_copies: u64,
    /// Pages materialised from demand-zero.
    pub zero_fills: u64,
    /// Bytes read through the accessors.
    pub bytes_read: u64,
    /// Bytes written through the accessors.
    pub bytes_written: u64,
    /// Read accesses that missed the two-entry leaf cache.
    pub read_cache_misses: u64,
    /// Read accesses satisfied by the two-entry leaf cache.
    pub read_cache_hits: u64,
    /// Pages discarded by `unmap`/`brk` shrink.
    pub pages_discarded: u64,
}

impl MemStats {
    /// Returns a zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the element-wise difference `self - earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not actually earlier (any
    /// counter would underflow); in release builds the subtraction wraps.
    pub fn delta(&self, earlier: &MemStats) -> MemStats {
        MemStats {
            cow_page_copies: self.cow_page_copies.wrapping_sub(earlier.cow_page_copies),
            node_copies: self.node_copies.wrapping_sub(earlier.node_copies),
            zero_fills: self.zero_fills.wrapping_sub(earlier.zero_fills),
            bytes_read: self.bytes_read.wrapping_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.wrapping_sub(earlier.bytes_written),
            read_cache_misses: self
                .read_cache_misses
                .wrapping_sub(earlier.read_cache_misses),
            read_cache_hits: self.read_cache_hits.wrapping_sub(earlier.read_cache_hits),
            pages_discarded: self.pages_discarded.wrapping_sub(earlier.pages_discarded),
        }
    }

    /// Total bytes physically copied by CoW breaks and zero fills.
    pub fn bytes_copied(&self) -> u64 {
        (self.cow_page_copies + self.zero_fills) * crate::page::PAGE_SIZE as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts() {
        let a = MemStats {
            cow_page_copies: 10,
            zero_fills: 4,
            ..Default::default()
        };
        let b = MemStats {
            cow_page_copies: 3,
            zero_fills: 1,
            ..Default::default()
        };
        let d = a.delta(&b);
        assert_eq!(d.cow_page_copies, 7);
        assert_eq!(d.zero_fills, 3);
    }

    #[test]
    fn bytes_copied_counts_pages() {
        let s = MemStats {
            cow_page_copies: 2,
            zero_fills: 1,
            ..Default::default()
        };
        assert_eq!(s.bytes_copied(), 3 * 4096);
    }
}
