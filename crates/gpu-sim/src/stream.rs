//! CUDA-stream identifiers and per-stream bookkeeping.
//!
//! Kernels launched on the same stream execute in FIFO order; kernels on
//! different streams may execute concurrently if residency slots allow. The
//! "single queue" deadlock situation of Fig. 1(c) corresponds to issuing all
//! collectives on one stream.

/// Identifier of a CUDA-like stream on one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub usize);

/// The default stream. Work on the default stream implicitly synchronizes with
/// other streams in real CUDA; the engine models that via an implicit
/// synchronization barrier when requested by the caller.
pub const DEFAULT_STREAM: StreamId = StreamId(0);

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_stream_is_stream_zero() {
        assert_eq!(DEFAULT_STREAM, StreamId(0));
        assert_eq!(format!("{}", StreamId(3)), "stream3");
    }

    #[test]
    fn stream_ids_order_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(StreamId(1));
        set.insert(StreamId(2));
        set.insert(StreamId(1));
        assert_eq!(set.len(), 2);
        assert!(StreamId(1) < StreamId(2));
    }
}
