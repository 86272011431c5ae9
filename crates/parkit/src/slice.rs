//! The unsafe-but-encapsulated pointer behind the pool's disjoint
//! concurrent writes.

/// A raw pointer that asserts Send/Sync so it can be captured by a
/// parallel-region closure. Safe use requires the caller to guarantee
/// disjoint index ranges per lane, which the pool's chunking provides.
pub(crate) struct SendPtr<T>(pub *mut T);

impl<T> Copy for SendPtr<T> {}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

// SAFETY: callers only dereference disjoint ranges (see `for_each_chunk`).
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Method (not field) access, so edition-2021 closures capture the
    /// whole `SendPtr` rather than the raw pointer field, keeping the
    /// closure `Sync`.
    pub(crate) fn get(self) -> *mut T {
        self.0
    }
}
