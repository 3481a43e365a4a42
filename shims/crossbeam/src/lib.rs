//! Offline stand-in for the `crossbeam` crate (see shims/README.md).
//! Only the pieces this workspace uses are provided.

#![warn(missing_docs)]

/// Utilities (`crossbeam::utils`).
pub mod utils {
    /// Pads and aligns a value to the length of a cache line, so two
    /// `CachePadded` values never share a line (no false sharing).
    ///
    /// 128 bytes covers the common cases: x86_64 prefetches line pairs
    /// and recent aarch64 cores use 128-byte lines.
    #[derive(Debug, Default, Clone, Copy)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        /// Wraps `value` in cache-line padding.
        pub const fn new(value: T) -> Self {
            Self { value }
        }

        /// Unwraps the inner value.
        pub fn into_inner(self) -> T {
            self.value
        }
    }

    impl<T> std::ops::Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> std::ops::DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn aligned_and_transparent() {
            let c = CachePadded::new(7u64);
            assert_eq!(*c, 7);
            assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
            assert_eq!(c.into_inner(), 7);
        }
    }
}
