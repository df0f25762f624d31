//! Sparse byte-addressable memory with two copy-on-write layers.
//!
//! A [`Memory`] is a shared, immutable **base** layer (an `Arc` of a
//! page map, built by [`Memory::freeze`]) under a **private** layer of
//! reference-counted pages (`Arc<[u8; 4096]>`). Cloning shares the base
//! through one refcount and the private pages through one refcount
//! each, so a clone of a frozen image — the fuzzer clones every input
//! about twenty times per program — costs O(private pages) however many
//! pages the base holds. Reads look in the private layer, then in the
//! base. Clones diverge lazily: a write copies only the 4 KiB page it
//! lands on into the private layer (hand-rolled `Arc` make-mut, std
//! only); base pages are never written in place. The most recently
//! written page is additionally kept *checked out* of the page table as
//! a uniquely-owned handle, so streams of writes to one page (the
//! common case for stack and secret-buffer initialisation) pay zero
//! hash lookups and never touch the refcount. A memory that was never
//! frozen has an empty base.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

type Page = [u8; PAGE_SIZE];
type PageMap = HashMap<u64, Arc<Page>, BuildHasherDefault<PageHasher>>;

/// Multiplicative (Fibonacci) hash of a page number. The keys are
/// trusted simulator addresses, so SipHash's flooding resistance buys
/// nothing; an odd multiplier keeps the low bits of consecutive page
/// numbers distinct and spreads all key bits into the high bits.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A sparse, zero-initialized, byte-addressable 64-bit memory.
///
/// Pages are allocated lazily; reads of unmapped memory return zero
/// (matching the fuzzing harness's architectural-fault suppression — no
/// access ever faults). Clones share pages copy-on-write, and
/// [`Memory::freeze`] moves every page into a base layer that clones
/// share in O(1).
///
/// # Examples
///
/// ```
/// use protean_arch::Memory;
///
/// let mut mem = Memory::new();
/// mem.write(0x1000, 8, 0xdead_beef);
/// assert_eq!(mem.read(0x1000, 8), 0xdead_beef);
/// assert_eq!(mem.read(0x1004, 4), 0); // upper half
/// assert_eq!(mem.read(0x9999, 8), 0); // unmapped reads as zero
///
/// mem.freeze(); // every page moves into the shared base
/// let fork = mem.clone(); // O(private pages), here O(1)
/// let mut mem2 = fork.clone();
/// mem2.write(0x1000, 1, 0xff); // copies only the touched page
/// assert_eq!(mem.read(0x1000, 8), 0xdead_beef);
/// assert_eq!(mem2.read(0x1000, 8), 0xdead_beff);
/// ```
#[derive(Default)]
pub struct Memory {
    /// The frozen layer, shared by every clone and never written.
    base: Arc<PageMap>,
    /// The private layer; a page here shadows the base page of the same
    /// number.
    pages: PageMap,
    /// The page currently checked out for writing, keyed by page
    /// number. Invariant: the key is absent from `pages` and the `Arc`
    /// is uniquely owned (strong count 1, no weak refs), so writes hit
    /// it in place with no hash lookup and no copy.
    open: Option<(u64, Arc<Page>)>,
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Moves every page into a new shared base layer, leaving the
    /// private layer empty, so that later clones share all current
    /// contents in O(1). Contents are unchanged.
    pub fn freeze(&mut self) {
        if let Some((k, p)) = self.open.take() {
            self.pages.insert(k, p);
        }
        if self.pages.is_empty() {
            return;
        }
        let mut base = Arc::unwrap_or_clone(std::mem::take(&mut self.base));
        base.extend(self.pages.drain());
        self.base = Arc::new(base);
    }

    /// The page holding `key`, if mapped.
    #[inline]
    fn page(&self, key: u64) -> Option<&Page> {
        if let Some((k, p)) = &self.open {
            if *k == key {
                return Some(p);
            }
        }
        self.pages
            .get(&key)
            .or_else(|| self.base.get(&key))
            .map(|p| &**p)
    }

    /// Checks the page holding `key` out into the `open` slot (copying
    /// it first if clones or the base still share it) and returns it
    /// mutably.
    fn open_page(&mut self, key: u64) -> &mut Page {
        let hit = matches!(&self.open, Some((k, _)) if *k == key);
        if !hit {
            if let Some((k, p)) = self.open.take() {
                self.pages.insert(k, p);
            }
            let arc = match self.pages.remove(&key) {
                Some(mut arc) => {
                    // Hand-rolled `Arc::make_mut`: a uniquely-owned page
                    // is written in place; a page still shared with
                    // other Memory clones is copied first.
                    if Arc::get_mut(&mut arc).is_none() {
                        arc = Arc::new(*arc);
                    }
                    arc
                }
                None => match self.base.get(&key) {
                    Some(page) => Arc::new(**page),
                    None => Arc::new([0; PAGE_SIZE]),
                },
            };
            self.open = Some((key, arc));
        }
        let (_, arc) = self.open.as_mut().expect("open slot just filled");
        Arc::get_mut(arc).expect("open page is uniquely owned")
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr >> PAGE_SHIFT) {
            Some(page) => page[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.open_page(addr >> PAGE_SHIFT)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads `size` bytes (1–8) little-endian, zero-extended.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not in `1..=8`.
    pub fn read(&self, addr: u64, size: u64) -> u64 {
        assert!((1..=8).contains(&size), "bad access size {size}");
        let offset = (addr & PAGE_MASK) as usize;
        if offset + size as usize <= PAGE_SIZE {
            // Fast path: the access stays inside one page — a single
            // page-table lookup for all `size` bytes.
            let Some(page) = self.page(addr >> PAGE_SHIFT) else {
                return 0;
            };
            let mut value = 0u64;
            for (i, b) in page[offset..offset + size as usize].iter().enumerate() {
                value |= (*b as u64) << (8 * i);
            }
            value
        } else {
            let mut value = 0u64;
            for i in 0..size {
                value |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
            }
            value
        }
    }

    /// Writes the low `size` bytes (1–8) of `value` little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not in `1..=8`.
    pub fn write(&mut self, addr: u64, size: u64, value: u64) {
        assert!((1..=8).contains(&size), "bad access size {size}");
        let offset = (addr & PAGE_MASK) as usize;
        if offset + size as usize <= PAGE_SIZE {
            // Fast path: single page, single lookup.
            let page = self.open_page(addr >> PAGE_SHIFT);
            for (i, b) in page[offset..offset + size as usize].iter_mut().enumerate() {
                *b = (value >> (8 * i)) as u8;
            }
        } else {
            for i in 0..size {
                self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
            }
        }
    }

    /// Copies a byte slice into memory at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let offset = (addr & PAGE_MASK) as usize;
            let n = rest.len().min(PAGE_SIZE - offset);
            let page = self.open_page(addr >> PAGE_SHIFT);
            page[offset..offset + n].copy_from_slice(&rest[..n]);
            addr = addr.wrapping_add(n as u64);
            rest = &rest[n..];
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.read_u8(addr.wrapping_add(i as u64)))
            .collect()
    }

    /// Number of mapped pages in the union of both layers (for
    /// diagnostics).
    pub fn mapped_pages(&self) -> usize {
        let private = self.private_keys().filter(|k| !self.base.contains_key(k));
        self.base.len() + private.count()
    }

    /// Page numbers of the private layer, open page included.
    fn private_keys(&self) -> impl Iterator<Item = u64> + '_ {
        let open = self.open.as_ref().map(|(k, _)| *k);
        self.pages.keys().copied().chain(open)
    }
}

impl Clone for Memory {
    /// O(private pages) — shares the base through one refcount and
    /// every private page copy-on-write. The clone's copy of the open
    /// page is freshly owned so `self` keeps its uniquely-owned write
    /// handle.
    fn clone(&self) -> Memory {
        let mut pages = self.pages.clone();
        if let Some((k, p)) = &self.open {
            pages.insert(*k, Arc::new(**p));
        }
        Memory {
            base: Arc::clone(&self.base),
            pages,
            open: None,
        }
    }

    /// Reuses the destination's page-table allocation (the arena reset
    /// path: `core.mem.clone_from(&input.mem)` once per fuzz run), and
    /// skips the base refcount when both already share one base.
    fn clone_from(&mut self, source: &Memory) {
        self.open = None;
        if !Arc::ptr_eq(&self.base, &source.base) {
            self.base = Arc::clone(&source.base);
        }
        self.pages.clone_from(&source.pages);
        if let Some((k, p)) = &source.open {
            self.pages.insert(*k, Arc::new(**p));
        }
    }
}

impl PartialEq for Memory {
    /// Content equality: every address reads the same byte in both, so
    /// an unmapped page equals an all-zero one. Two memories on one base
    /// can differ only on their private pages.
    fn eq(&self, other: &Memory) -> bool {
        const ZERO: Page = [0; PAGE_SIZE];
        let same = |k: u64| self.page(k).unwrap_or(&ZERO) == other.page(k).unwrap_or(&ZERO);
        let mut private = self.private_keys().chain(other.private_keys());
        if Arc::ptr_eq(&self.base, &other.base) {
            return private.all(same);
        }
        let base = self.base.keys().chain(other.base.keys()).copied();
        private.chain(base).all(same)
    }
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory")
            .field("mapped_pages", &self.mapped_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn little_endian_roundtrip() {
        let mut m = Memory::new();
        m.write(0x100, 8, 0x0807060504030201);
        assert_eq!(m.read_u8(0x100), 0x01);
        assert_eq!(m.read_u8(0x107), 0x08);
        assert_eq!(m.read(0x102, 2), 0x0403);
    }

    #[test]
    fn equality_is_by_content() {
        let mut a = Memory::new();
        a.write(0x1000, 8, 7);
        let mut b = a.clone();
        assert_eq!(a, b);
        b.write(0x1004, 1, 1);
        assert_ne!(a, b);
        b.write(0x1004, 1, 0);
        assert_eq!(a, b, "same bytes, different write history");
        b.write(0x9000, 1, 0);
        assert_eq!(a, b, "a mapped zero page equals an unmapped one");
        assert_ne!(b, Memory::new());
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = 0x1ffc; // last 4 bytes of a page
        m.write(addr, 8, 0x1122334455667788);
        assert_eq!(m.read(addr, 8), 0x1122334455667788);
        assert!(m.mapped_pages() >= 2);
    }

    #[test]
    fn page_boundary_straddle_regression() {
        // Every split of an 8-byte access across the page boundary, for
        // both the write and the read path (the non-crossing fast path
        // must not be taken for any of these).
        for first in 1..8u64 {
            let addr = 0x2000 - first;
            let mut m = Memory::new();
            m.write(addr, 8, 0xa1b2_c3d4_e5f6_0718);
            assert_eq!(m.read(addr, 8), 0xa1b2_c3d4_e5f6_0718, "split {first}");
            // Byte-wise view agrees with the multi-byte view.
            for i in 0..8 {
                assert_eq!(
                    m.read_u8(addr + i),
                    (0xa1b2_c3d4_e5f6_0718u64 >> (8 * i)) as u8
                );
            }
            assert_eq!(m.mapped_pages(), 2);
        }
    }

    #[test]
    fn unmapped_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read(0xdead_beef, 8), 0);
    }

    #[test]
    fn partial_write_preserves_neighbors() {
        let mut m = Memory::new();
        m.write(0x10, 8, u64::MAX);
        m.write(0x12, 2, 0);
        assert_eq!(m.read(0x10, 8), 0xffff_ffff_0000_ffff);
    }

    #[test]
    #[should_panic(expected = "bad access size")]
    fn oversized_access_panics() {
        Memory::new().read(0, 9);
    }

    #[test]
    fn bytes_interface() {
        let mut m = Memory::new();
        m.write_bytes(0x200, &[1, 2, 3]);
        assert_eq!(m.read_bytes(0x200, 4), vec![1, 2, 3, 0]);
    }

    #[test]
    fn bytes_interface_across_pages() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..=255).cycle().take(PAGE_SIZE + 64).collect();
        m.write_bytes(0xff0, &data);
        assert_eq!(m.read_bytes(0xff0, data.len()), data);
    }

    #[test]
    fn clones_diverge_copy_on_write() {
        let mut a = Memory::new();
        a.write(0x1000, 8, 111);
        a.write(0x5000, 8, 222);
        let mut b = a.clone();
        b.write(0x1000, 8, 999);
        a.write(0x5000, 8, 333);
        assert_eq!(a.read(0x1000, 8), 111);
        assert_eq!(a.read(0x5000, 8), 333);
        assert_eq!(b.read(0x1000, 8), 999);
        assert_eq!(b.read(0x5000, 8), 222);
    }

    #[test]
    fn clone_from_reuses_and_matches() {
        let mut src = Memory::new();
        src.write(0x1000, 8, 42);
        src.write(0x8000, 4, 7);
        let mut dst = Memory::new();
        dst.write(0x9000, 8, u64::MAX); // stale state must vanish
        dst.clone_from(&src);
        assert_eq!(dst.read(0x1000, 8), 42);
        assert_eq!(dst.read(0x8000, 4), 7);
        assert_eq!(dst.read(0x9000, 8), 0);
        assert_eq!(dst.mapped_pages(), src.mapped_pages());
    }

    #[test]
    fn open_page_survives_interleaved_clone() {
        let mut a = Memory::new();
        a.write(0x1000, 8, 5); // 0x1 becomes the open page
        let b = a.clone();
        a.write(0x1008, 8, 6); // must not leak into b
        assert_eq!(b.read(0x1008, 8), 0);
        assert_eq!(a.read(0x1008, 8), 6);
        assert_eq!(a.read(0x1000, 8), 5);
        assert_eq!(b.read(0x1000, 8), 5);
    }

    #[test]
    fn frozen_image_clones_share_the_base() {
        // The shape of a fuzzer input: a 1,024-page frozen template,
        // then a few private writes on top.
        let mut template = Memory::new();
        for i in 0..1024u64 {
            template.write(0x10_0000 + i * 0x1000, 8, i + 1);
        }
        template.freeze();
        assert_eq!(template.pages.len(), 0);
        assert!(template.open.is_none());
        assert_eq!(template.mapped_pages(), 1024);

        let mut input = Memory::new();
        input.clone_from(&template);
        assert!(Arc::ptr_eq(&input.base, &template.base));
        input.write(0x10_0000, 8, 99); // shadows a base page
        input.write(0x9000, 8, 7); // a page the base lacks
        let fork = input.clone();
        assert!(Arc::ptr_eq(&fork.base, &template.base));
        assert_eq!(fork.pages.len(), 2, "only the private pages are copied");

        // The union of both layers, a shadowed page counted once.
        assert_eq!(fork.mapped_pages(), 1025);
        assert_eq!(input.mapped_pages(), 1025);
        // Base pages were never written in place.
        assert_eq!(template.read(0x10_0000, 8), 1);
        assert_eq!(fork.read(0x10_0000, 8), 99);
        assert_eq!(fork.read(0x10_1000, 8), 2);

        // Equality over the union: shared base, then a deep copy with
        // no base at all.
        assert_eq!(fork, input);
        let mut flat = Memory::new();
        for i in 0..1024u64 {
            flat.write(0x10_0000 + i * 0x1000, 8, i + 1);
        }
        flat.write(0x10_0000, 8, 99);
        flat.write(0x9000, 8, 7);
        assert_eq!(flat, fork);
        assert_eq!(fork, flat);
        flat.write(0x10_3ff8, 8, 0);
        assert_eq!(flat, fork, "an explicit zero equals the base's zero");
        flat.write(0x10_3000, 8, 5);
        assert_ne!(flat, fork);
        assert_ne!(fork, flat);
        let mut other = template.clone();
        assert_ne!(other, fork);
        other.write(0x9000, 8, 7);
        other.write(0x10_0000, 8, 99);
        assert_eq!(other, fork);
    }

    #[test]
    fn refreezing_keeps_contents_and_siblings() {
        let mut a = Memory::new();
        a.write(0x1000, 8, 1);
        a.freeze();
        let sibling = a.clone();
        a.write(0x1000, 8, 2);
        a.write(0x2000, 8, 3);
        a.freeze(); // the old base is still shared with `sibling`
        assert_eq!(a.read(0x1000, 8), 2);
        assert_eq!(a.read(0x2000, 8), 3);
        assert_eq!(a.mapped_pages(), 2);
        assert_eq!(sibling.read(0x1000, 8), 1);
        assert_eq!(sibling.read(0x2000, 8), 0);
    }
}
