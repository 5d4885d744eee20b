//! The emulator's sparse, paged memory image.
//!
//! The address space is split into fixed [`PAGE_SIZE`] pages, each
//! materialised on its first write; a page never written reads as zero.
//! This is the shape of SimpleScalar's functional memory: building,
//! cloning and restoring an image costs the pages a program touches,
//! not the size of its address space. Callers bounds-check every access
//! with [`Memory::contains`] first; the accessors themselves assume an
//! in-range address.

/// Bytes per page.
pub(crate) const PAGE_SIZE: usize = 4096;

type Page = [u8; PAGE_SIZE];

/// A byte-addressed memory of `size` bytes, paged on first write.
pub(crate) struct Memory {
    size: usize,
    /// One slot per page of the address space. The last page may
    /// extend past `size`; no write reaches that tail, so it stays zero.
    pages: Vec<Option<Box<Page>>>,
}

impl Clone for Memory {
    fn clone(&self) -> Self {
        Self {
            size: self.size,
            pages: self.pages.clone(),
        }
    }

    /// Reuses `self`'s pages where both images have one (copied in
    /// place), clones the pages only `source` has, and drops the pages
    /// `source` lacks: `Vec`, `Option` and `Box` each forward
    /// `clone_from` to their contents.
    fn clone_from(&mut self, source: &Self) {
        self.size = source.size;
        self.pages.clone_from(&source.pages);
    }
}

impl Memory {
    /// An all-zero image of `size` bytes with no page materialised.
    pub(crate) fn new(size: usize) -> Self {
        Self {
            size,
            pages: vec![None; size.div_ceil(PAGE_SIZE)],
        }
    }

    /// The size of the address space in bytes.
    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// True when all of `addr..addr + len` lies inside the image.
    pub(crate) fn contains(&self, addr: u64, len: u64) -> bool {
        addr.checked_add(len)
            .is_some_and(|end| end <= self.size as u64)
    }

    /// The `n` (1 to 8) bytes at `addr`, as a little-endian integer.
    pub(crate) fn read(&self, addr: usize, n: usize) -> u64 {
        let (page, off) = (addr / PAGE_SIZE, addr % PAGE_SIZE);
        if off <= PAGE_SIZE - 8 {
            // One fixed 8-byte load from the page, masked to `n` bytes.
            let Some(p) = &self.pages[page] else { return 0 };
            let word = u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes"));
            return word & (u64::MAX >> (64 - 8 * n));
        }
        let mut buf = [0u8; 8];
        self.read_bytes(addr, &mut buf[..n]);
        u64::from_le_bytes(buf)
    }

    /// Fills `buf` from the bytes at `addr`.
    fn read_bytes(&self, addr: usize, buf: &mut [u8]) {
        let mut done = 0;
        while done < buf.len() {
            let (page, off) = ((addr + done) / PAGE_SIZE, (addr + done) % PAGE_SIZE);
            let len = (PAGE_SIZE - off).min(buf.len() - done);
            let dst = &mut buf[done..done + len];
            match &self.pages[page] {
                Some(p) => dst.copy_from_slice(&p[off..off + len]),
                None => dst.fill(0),
            }
            done += len;
        }
    }

    /// Copies `bytes` to `addr`, materialising every page it touches.
    pub(crate) fn write(&mut self, addr: usize, bytes: &[u8]) {
        let mut done = 0;
        while done < bytes.len() {
            let (page, off) = ((addr + done) / PAGE_SIZE, (addr + done) % PAGE_SIZE);
            let len = (PAGE_SIZE - off).min(bytes.len() - done);
            let p = self.pages[page].get_or_insert_with(zero_page);
            p[off..off + len].copy_from_slice(&bytes[done..done + len]);
            done += len;
        }
    }
}

/// A fresh all-zero page.
fn zero_page() -> Box<Page> {
    Box::new([0; PAGE_SIZE])
}

#[cfg(test)]
impl Memory {
    /// `(page index, page address)` of every materialised page.
    pub(crate) fn materialised(&self) -> Vec<(usize, *const u8)> {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|p| (i, p.as_ptr())))
            .collect()
    }

    /// Every byte of the image, as a flat reference model would hold it.
    pub(crate) fn to_flat(&self) -> Vec<u8> {
        let mut flat = Vec::with_capacity(self.size);
        for page in &self.pages {
            let len = (self.size - flat.len()).min(PAGE_SIZE);
            match page {
                Some(p) => flat.extend_from_slice(&p[..len]),
                None => flat.resize(flat.len() + len, 0),
            }
        }
        flat
    }
}
