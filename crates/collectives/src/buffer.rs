//! Local send/recv buffers shared between the application thread and the
//! daemon kernel.
//!
//! In the real system these are device-memory pointers; here they are
//! reference-counted byte buffers. The invoker keeps a handle, the daemon
//! kernel reads the send buffer and writes the recv buffer, and the completion
//! callback tells the invoker when the recv buffer holds the result.
//!
//! A buffer is either one allocation or a *concatenated view*
//! ([`DeviceBuffer::concat`]): the leading bytes of several buffers, in
//! order, addressed as one range. A fused all-reduce runs over such views,
//! so it reads and writes its members' buffers in place. The range
//! accessors ([`DeviceBuffer::read_range`], [`DeviceBuffer::with_range`],
//! [`DeviceBuffer::write_range`]) split a range at member boundaries; a view
//! has no contiguous bytes to lend, so [`DeviceBuffer::with_write`] and
//! [`DeviceBuffer::replace`] are for single allocations only.

use std::sync::Arc;

use parking_lot::RwLock;

/// A shared, growable byte buffer standing in for a device-memory allocation,
/// or a concatenated view over several.
#[derive(Debug, Clone)]
pub struct DeviceBuffer {
    inner: Arc<RwLock<Storage>>,
}

#[derive(Debug)]
enum Storage {
    /// One allocation.
    Flat(Vec<u8>),
    /// The members' leading bytes, in order, with nothing copied.
    Concat(Box<[Piece]>),
}

/// One member of a concatenated view.
#[derive(Debug)]
struct Piece {
    /// A single allocation.
    buf: DeviceBuffer,
    /// Offset of the member's first byte in the view.
    start: usize,
    /// Bytes of the member the view covers, from the member's start.
    len: usize,
}

/// The parts of bytes `offset..offset + len` of a view that fall in each
/// member: `(member, offset in the member, length, offset in the range)`.
fn split(
    pieces: &[Piece],
    offset: usize,
    len: usize,
) -> impl Iterator<Item = (&DeviceBuffer, usize, usize, usize)> {
    let end = offset + len;
    let total = pieces.last().map_or(0, |p| p.start + p.len);
    assert!(
        end <= total,
        "range {offset}..{end} outside a {total}-byte view"
    );
    let first = pieces.partition_point(|p| p.start + p.len <= offset);
    pieces[first..]
        .iter()
        .take_while(move |p| p.start < end)
        .filter_map(move |p| {
            let lo = offset.max(p.start);
            let hi = end.min(p.start + p.len);
            (hi > lo).then(|| (&p.buf, lo - p.start, hi - lo, lo - offset))
        })
}

impl DeviceBuffer {
    fn flat(bytes: Vec<u8>) -> Self {
        DeviceBuffer {
            inner: Arc::new(RwLock::new(Storage::Flat(bytes))),
        }
    }

    /// A zero-filled buffer of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        DeviceBuffer::flat(vec![0u8; len])
    }

    /// A buffer initialised from raw bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        DeviceBuffer::flat(bytes)
    }

    /// A buffer initialised from a slice of `f32` values (little-endian).
    pub fn from_f32(values: &[f32]) -> Self {
        DeviceBuffer::from_bytes(values.iter().flat_map(|v| v.to_le_bytes()).collect())
    }

    /// A buffer initialised from a slice of `i32` values (little-endian).
    pub fn from_i32(values: &[i32]) -> Self {
        DeviceBuffer::from_bytes(values.iter().flat_map(|v| v.to_le_bytes()).collect())
    }

    /// A view concatenating the first `len` bytes of each `(buffer, len)`
    /// part, in order. It shares the parts' allocations: writing the view
    /// writes them, and what they hold is what the view reads.
    ///
    /// # Panics
    /// If a part is a view itself, or shorter than the bytes it lends.
    pub fn concat(parts: impl IntoIterator<Item = (DeviceBuffer, usize)>) -> Self {
        let mut start = 0;
        let pieces = parts
            .into_iter()
            .map(|(buf, len)| {
                assert!(
                    matches!(&*buf.inner.read(), Storage::Flat(bytes) if bytes.len() >= len),
                    "a view's parts are single allocations holding the bytes they lend"
                );
                let piece = Piece { buf, start, len };
                start += len;
                piece
            })
            .collect();
        DeviceBuffer {
            inner: Arc::new(RwLock::new(Storage::Concat(pieces))),
        }
    }

    /// Run `f` on the bytes of a single allocation (a view's members are).
    fn with_flat<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        match &*self.inner.read() {
            Storage::Flat(bytes) => f(bytes),
            Storage::Concat(_) => unreachable!("a view's members are single allocations"),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        match &*self.inner.read() {
            Storage::Flat(bytes) => bytes.len(),
            Storage::Concat(pieces) => pieces.last().map_or(0, |p| p.start + p.len),
        }
    }

    /// Whether the buffer has zero length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy of the whole contents.
    pub fn to_vec(&self) -> Vec<u8> {
        self.with_read(<[u8]>::to_vec)
    }

    /// Interpret the contents as `f32` values.
    pub fn to_f32_vec(&self) -> Vec<f32> {
        self.with_read(|bytes| {
            bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
                .collect()
        })
    }

    /// Interpret the contents as `i32` values.
    pub fn to_i32_vec(&self) -> Vec<i32> {
        self.with_read(|bytes| {
            bytes
                .chunks_exact(4)
                .map(|c| i32::from_le_bytes(c.try_into().expect("4-byte chunk")))
                .collect()
        })
    }

    /// Copy of a byte range.
    pub fn read_range(&self, offset: usize, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.with_range(offset, len, |_, bytes| out.extend_from_slice(bytes));
        out
    }

    /// Run `f` over a byte range in place, one contiguous piece at a time:
    /// `f(at, bytes)` gets each piece with its offset in the range. A single
    /// allocation is one piece; a view splits at its members' boundaries.
    pub fn with_range(&self, offset: usize, len: usize, mut f: impl FnMut(usize, &[u8])) {
        match &*self.inner.read() {
            Storage::Flat(bytes) => f(0, &bytes[offset..offset + len]),
            Storage::Concat(pieces) => {
                for (buf, off, n, at) in split(pieces, offset, len) {
                    buf.with_flat(|bytes| f(at, &bytes[off..off + n]));
                }
            }
        }
    }

    /// Overwrite a byte range.
    pub fn write_range(&self, offset: usize, data: &[u8]) {
        // A view is only read-locked: its member table never changes, and
        // each member takes its own write lock.
        if let Storage::Concat(pieces) = &*self.inner.read() {
            for (buf, off, n, at) in split(pieces, offset, data.len()) {
                buf.write_range(off, &data[at..at + n]);
            }
            return;
        }
        match &mut *self.inner.write() {
            Storage::Flat(bytes) => bytes[offset..offset + data.len()].copy_from_slice(data),
            Storage::Concat(_) => unreachable!("a buffer never becomes a view"),
        }
    }

    /// Overwrite the whole buffer (resizing it).
    ///
    /// # Panics
    /// On a concatenated view, which cannot be resized.
    pub fn replace(&self, data: Vec<u8>) {
        self.with_write(|bytes| *bytes = data);
    }

    /// Run `f` with read access to the contents. A view lends a gathered
    /// copy of its members' bytes; the range accessors avoid that copy.
    pub fn with_read<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        if let Storage::Flat(bytes) = &*self.inner.read() {
            return f(bytes);
        }
        f(&self.read_range(0, self.len()))
    }

    /// Run `f` with write access to the contents.
    ///
    /// # Panics
    /// On a concatenated view, which has no contiguous bytes to lend: use
    /// [`DeviceBuffer::write_range`].
    pub fn with_write<R>(&self, f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        match &mut *self.inner.write() {
            Storage::Flat(bytes) => f(bytes),
            Storage::Concat(_) => panic!("a concatenated view has no contiguous bytes to write"),
        }
    }

    /// Whether two handles refer to the same underlying allocation.
    pub fn same_allocation(&self, other: &DeviceBuffer) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_buffer_has_requested_length() {
        let b = DeviceBuffer::zeroed(16);
        assert_eq!(b.len(), 16);
        assert!(!b.is_empty());
        assert_eq!(b.to_vec(), vec![0u8; 16]);
        assert!(DeviceBuffer::zeroed(0).is_empty());
    }

    #[test]
    fn f32_round_trip() {
        let values = vec![1.5f32, -2.0, 3.25];
        let b = DeviceBuffer::from_f32(&values);
        assert_eq!(b.to_f32_vec(), values);
        assert_eq!(b.len(), 12);
    }

    #[test]
    fn i32_round_trip() {
        let values = vec![1i32, -7, 1 << 20];
        let b = DeviceBuffer::from_i32(&values);
        assert_eq!(b.to_i32_vec(), values);
    }

    #[test]
    fn range_read_write() {
        let b = DeviceBuffer::zeroed(8);
        b.write_range(2, &[9, 9, 9]);
        assert_eq!(b.read_range(1, 5), vec![0, 9, 9, 9, 0]);
    }

    #[test]
    fn clones_share_the_allocation() {
        let a = DeviceBuffer::zeroed(4);
        let b = a.clone();
        b.write_range(0, &[1, 2, 3, 4]);
        assert_eq!(a.to_vec(), vec![1, 2, 3, 4]);
        assert!(a.same_allocation(&b));
        assert!(!a.same_allocation(&DeviceBuffer::zeroed(4)));
    }

    #[test]
    fn replace_resizes() {
        let b = DeviceBuffer::zeroed(2);
        b.replace(vec![7; 10]);
        assert_eq!(b.len(), 10);
    }

    #[test]
    fn a_handle_is_one_pointer() {
        assert_eq!(
            std::mem::size_of::<DeviceBuffer>(),
            std::mem::size_of::<usize>()
        );
        // A view shares the single allocation's lock-and-bytes footprint.
        assert_eq!(
            std::mem::size_of::<RwLock<Storage>>(),
            std::mem::size_of::<RwLock<Vec<u8>>>()
        );
    }

    #[test]
    fn a_view_reads_and_writes_its_members_piecewise() {
        let (a, b, c) = (
            DeviceBuffer::from_bytes(vec![1, 2, 3, 4, 99]),
            DeviceBuffer::zeroed(0),
            DeviceBuffer::from_bytes(vec![5, 6, 7]),
        );
        // Only the first 4 bytes of `a` belong to the view.
        let view = DeviceBuffer::concat([(a.clone(), 4), (b, 0), (c.clone(), 3)]);
        assert_eq!(view.len(), 7);
        assert_eq!(view.to_vec(), vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(view.read_range(2, 4), vec![3, 4, 5, 6]);
        let mut pieces = Vec::new();
        view.with_range(2, 4, |at, bytes| pieces.push((at, bytes.to_vec())));
        assert_eq!(pieces, vec![(0, vec![3, 4]), (2, vec![5, 6])]);
        view.write_range(3, &[40, 50]);
        assert_eq!(a.to_vec(), vec![1, 2, 3, 40, 99]);
        assert_eq!(c.to_vec(), vec![50, 6, 7]);
        assert_eq!(view.with_read(<[u8]>::to_vec), vec![1, 2, 3, 40, 50, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "no contiguous bytes")]
    fn a_view_lends_no_contiguous_bytes_to_write() {
        let view = DeviceBuffer::concat([(DeviceBuffer::zeroed(4), 4)]);
        view.with_write(|bytes| bytes.clear());
    }

    #[test]
    fn with_read_and_write_closures() {
        let b = DeviceBuffer::from_f32(&[1.0, 2.0]);
        let sum: f32 = b.with_read(|bytes| {
            bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .sum()
        });
        assert_eq!(sum, 3.0);
        b.with_write(|v| v.truncate(4));
        assert_eq!(b.len(), 4);
    }
}
