//! Physical frames: 4 KiB pages shared by reference counting.
//!
//! A [`Frame`] is the unit of copy-on-write sharing. Frames are immutable
//! while shared; mutation goes through [`Frame::make_mut`]-style access in
//! the page table, which transparently copies a frame whose reference count
//! is greater than one. This mirrors what the paper's libOS does with nested
//! page tables: a snapshot shares every frame read-only, and the first write
//! through any descendant copies exactly one 4 KiB page.
//!
//! A mapped page with no frame is demand-zero: it reads as zeros (the
//! shared [`zero_frame`] on the execute path) and gets a fresh frame on
//! its first write. The stack, the heap and `map_anon` start out that
//! way, and so does every all-zero page of a program image: the guest
//! loader (`lwsnap_vm::Program::load`) gives a frame only to a page that
//! holds a non-zero byte.

use std::sync::{Arc, OnceLock};

/// Log2 of the page size (4 KiB pages, the x86-64 base page size).
pub const PAGE_SHIFT: u32 = 12;

/// Size of one guest page in bytes.
pub const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Mask selecting the offset-within-page bits of an address.
pub const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Returns the page-aligned base of `va`.
#[inline]
pub fn page_base(va: u64) -> u64 {
    va & !PAGE_MASK
}

/// Returns the offset of `va` within its page.
#[inline]
pub fn page_offset(va: u64) -> usize {
    (va & PAGE_MASK) as usize
}

/// Returns the virtual page number of `va`.
#[inline]
pub fn vpn_of(va: u64) -> u64 {
    va >> PAGE_SHIFT
}

/// Rounds `len` up to a whole number of pages.
#[inline]
pub fn round_up_pages(len: u64) -> u64 {
    (len + PAGE_MASK) & !PAGE_MASK
}

/// Returns `true` if `va` is page-aligned.
#[inline]
pub fn is_page_aligned(va: u64) -> bool {
    va & PAGE_MASK == 0
}

/// The backing storage of one guest page.
///
/// Boxed inside an [`Arc`] this is the "physical frame" of the software MMU.
#[derive(Clone)]
pub struct PageBuf(pub [u8; PAGE_SIZE]);

impl PageBuf {
    /// Returns a freshly zeroed page buffer.
    pub fn zeroed() -> Self {
        PageBuf([0u8; PAGE_SIZE])
    }

    /// Read-only view of the page bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.0
    }

    /// Mutable view of the page bytes.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.0
    }
}

impl Default for PageBuf {
    fn default() -> Self {
        PageBuf::zeroed()
    }
}

/// A reference-counted physical frame.
///
/// Cloning a `Frame` is O(1) and expresses sharing between address-space
/// snapshots; the frame contents are copied lazily on the first write while
/// shared (copy-on-write).
pub type Frame = Arc<PageBuf>;

/// Returns the process-wide shared all-zeroes frame.
///
/// Demand-zero pages can be satisfied by this frame on the read path without
/// materialising per-page storage; the first write copies it, which is
/// exactly the zero-fill-on-demand behaviour of a real kernel.
pub fn zero_frame() -> Frame {
    static ZERO: OnceLock<Frame> = OnceLock::new();
    ZERO.get_or_init(|| Arc::new(PageBuf::zeroed())).clone()
}

/// Allocates a fresh, uniquely-owned zeroed frame.
pub fn fresh_zero_frame() -> Frame {
    Arc::new(PageBuf::zeroed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_math() {
        assert_eq!(page_base(0x1fff), 0x1000);
        assert_eq!(page_offset(0x1fff), 0xfff);
        assert_eq!(vpn_of(0x3000), 3);
        assert_eq!(round_up_pages(1), PAGE_SIZE as u64);
        assert_eq!(round_up_pages(0), 0);
        assert_eq!(round_up_pages(PAGE_SIZE as u64), PAGE_SIZE as u64);
        assert!(is_page_aligned(0x2000));
        assert!(!is_page_aligned(0x2001));
    }

    #[test]
    fn zero_frame_is_shared_and_zero() {
        let a = zero_frame();
        let b = zero_frame();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.bytes().iter().all(|&x| x == 0));
    }

    #[test]
    fn fresh_zero_frame_is_unique() {
        let a = fresh_zero_frame();
        let b = fresh_zero_frame();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(Arc::strong_count(&a), 1);
    }

    #[test]
    fn cow_semantics_via_make_mut() {
        let mut a = fresh_zero_frame();
        let b = a.clone();
        // Shared: make_mut must copy.
        Arc::make_mut(&mut a).bytes_mut()[0] = 42;
        assert_eq!(a.bytes()[0], 42);
        assert_eq!(b.bytes()[0], 0, "snapshot view must be unaffected");
        assert!(!Arc::ptr_eq(&a, &b));
    }
}
