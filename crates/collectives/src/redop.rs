//! Reduction operators and element-wise reduction over raw byte buffers.

use serde::{Deserialize, Serialize};

use crate::datatype::DataType;

/// The reduction operator of a reducing collective.
///
/// Integer `Sum` and `Prod` are two's-complement wrapping (`i32::MAX + 1` is
/// `i32::MIN`), in debug and release builds alike; floating-point ones follow
/// IEEE 754. `Max` and `Min` return their first operand on a tie and their
/// second when the comparison is unordered, so `max(+0, -0)` is `+0`,
/// `max(-0, +0)` is `-0`, and a NaN survives only as the second operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise product.
    Prod,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    /// All supported operators.
    pub const ALL: [ReduceOp; 4] = [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Max, ReduceOp::Min];
}

impl std::fmt::Display for ReduceOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Prod => "prod",
            ReduceOp::Max => "max",
            ReduceOp::Min => "min",
        };
        write!(f, "{s}")
    }
}

/// An element type the kernels reduce: little-endian in the byte buffers,
/// with the operator semantics documented on [`ReduceOp`].
trait Element: Copy + PartialOrd {
    fn add(self, rhs: Self) -> Self;
    fn mul(self, rhs: Self) -> Self;
    /// `dst[i] = f(dst[i], src[i])` over the elements of two equally long
    /// byte slices. `f` is a monomorphised closure, so the loop body is
    /// branch-free straight-line code that LLVM auto-vectorises.
    fn zip_with(dst: &mut [u8], src: &[u8], f: impl Fn(Self, Self) -> Self);
}

macro_rules! impl_element {
    ($ty:ty, $add:expr, $mul:expr) => {
        impl Element for $ty {
            #[inline(always)]
            fn add(self, rhs: Self) -> Self {
                $add(self, rhs)
            }
            #[inline(always)]
            fn mul(self, rhs: Self) -> Self {
                $mul(self, rhs)
            }
            #[inline(always)]
            fn zip_with(dst: &mut [u8], src: &[u8], f: impl Fn(Self, Self) -> Self) {
                const WIDTH: usize = std::mem::size_of::<$ty>();
                let (dst, _) = dst.as_chunks_mut::<WIDTH>();
                let (src, _) = src.as_chunks::<WIDTH>();
                for (d, s) in dst.iter_mut().zip(src) {
                    *d = f(<$ty>::from_le_bytes(*d), <$ty>::from_le_bytes(*s)).to_le_bytes();
                }
            }
        }
    };
}

impl_element!(f32, |x, y| x + y, |x, y| x * y);
impl_element!(f64, |x, y| x + y, |x, y| x * y);
impl_element!(i32, i32::wrapping_add, i32::wrapping_mul);
impl_element!(i64, i64::wrapping_add, i64::wrapping_mul);
impl_element!(u8, u8::wrapping_add, u8::wrapping_mul);

/// `dst[i] = op(dst[i], src[i])` if `DST_FIRST`, else `op(src[i], dst[i])`.
/// The operand order decides Max/Min ties (±0) and which NaN survives, so
/// both public entry points state theirs and keep it.
fn reduce_elems<T: Element, const DST_FIRST: bool>(dst: &mut [u8], src: &[u8], op: ReduceOp) {
    #[inline(always)]
    fn run<T: Element, const DST_FIRST: bool>(dst: &mut [u8], src: &[u8], f: impl Fn(T, T) -> T) {
        T::zip_with(dst, src, |d, s| if DST_FIRST { f(d, s) } else { f(s, d) });
    }
    match op {
        ReduceOp::Sum => run::<T, DST_FIRST>(dst, src, T::add),
        ReduceOp::Prod => run::<T, DST_FIRST>(dst, src, T::mul),
        ReduceOp::Max => run::<T, DST_FIRST>(dst, src, |x, y| if x >= y { x } else { y }),
        ReduceOp::Min => run::<T, DST_FIRST>(dst, src, |x, y| if x <= y { x } else { y }),
    }
}

/// Check the operands, then pick the monomorphised loop for `(dtype, op)` —
/// once per call, never per element.
fn reduce_bytes<const DST_FIRST: bool>(dst: &mut [u8], src: &[u8], dtype: DataType, op: ReduceOp) {
    assert_eq!(
        dst.len(),
        src.len(),
        "reduce operands must have equal length"
    );
    assert_eq!(
        dst.len() % dtype.size_bytes(),
        0,
        "buffer length must be a multiple of the element size"
    );
    match dtype {
        DataType::F32 => reduce_elems::<f32, DST_FIRST>(dst, src, op),
        DataType::F64 => reduce_elems::<f64, DST_FIRST>(dst, src, op),
        DataType::I32 => reduce_elems::<i32, DST_FIRST>(dst, src, op),
        DataType::I64 => reduce_elems::<i64, DST_FIRST>(dst, src, op),
        DataType::U8 => reduce_elems::<u8, DST_FIRST>(dst, src, op),
    }
}

/// Reduce `incoming` into `acc` element-wise: `acc[i] = op(acc[i], incoming[i])`.
///
/// Both slices must have the same length and be a multiple of the element size.
pub fn reduce_into(acc: &mut [u8], incoming: &[u8], dtype: DataType, op: ReduceOp) {
    reduce_bytes::<true>(acc, incoming, dtype, op);
}

/// Reduce `local` into `inout` element-wise with `local` as the *first*
/// operand: `inout[i] = op(local[i], inout[i])`. The mirror of
/// [`reduce_into`] for a caller that owns the incoming chunk and only borrows
/// the local operand — bit-identical to copying `local`, `reduce_into`-ing
/// `inout` into the copy and writing the copy back.
///
/// Both slices must have the same length and be a multiple of the element size.
pub fn reduce_from(local: &[u8], inout: &mut [u8], dtype: DataType, op: ReduceOp) {
    reduce_bytes::<false>(inout, local, dtype, op);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f32_bytes(v: &[f32]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    fn bytes_f32(v: &[u8]) -> Vec<f32> {
        v.chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn sum_of_f32() {
        let mut acc = f32_bytes(&[1.0, 2.0, 3.0]);
        let inc = f32_bytes(&[0.5, 0.5, 0.5]);
        reduce_into(&mut acc, &inc, DataType::F32, ReduceOp::Sum);
        assert_eq!(bytes_f32(&acc), vec![1.5, 2.5, 3.5]);
    }

    #[test]
    fn prod_max_min_of_i32() {
        let to_bytes = |v: &[i32]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
        let from_bytes = |v: &[u8]| -> Vec<i32> {
            v.chunks_exact(4)
                .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
                .collect()
        };
        let mut acc = to_bytes(&[2, -3, 7]);
        reduce_into(
            &mut acc,
            &to_bytes(&[4, 5, -1]),
            DataType::I32,
            ReduceOp::Prod,
        );
        assert_eq!(from_bytes(&acc), vec![8, -15, -7]);

        let mut acc = to_bytes(&[2, -3, 7]);
        reduce_into(
            &mut acc,
            &to_bytes(&[4, -5, -1]),
            DataType::I32,
            ReduceOp::Max,
        );
        assert_eq!(from_bytes(&acc), vec![4, -3, 7]);

        let mut acc = to_bytes(&[2, -3, 7]);
        reduce_into(
            &mut acc,
            &to_bytes(&[4, -5, -1]),
            DataType::I32,
            ReduceOp::Min,
        );
        assert_eq!(from_bytes(&acc), vec![2, -5, -1]);
    }

    #[test]
    fn u8_and_i64_and_f64_paths_work() {
        let mut acc = vec![1u8, 2, 3];
        reduce_into(&mut acc, &[10u8, 20, 30], DataType::U8, ReduceOp::Sum);
        assert_eq!(acc, vec![11, 22, 33]);

        let mut acc: Vec<u8> = 5i64.to_le_bytes().to_vec();
        reduce_into(&mut acc, &7i64.to_le_bytes(), DataType::I64, ReduceOp::Max);
        assert_eq!(i64::from_le_bytes(acc.try_into().unwrap()), 7);

        let mut acc: Vec<u8> = 2.5f64.to_le_bytes().to_vec();
        reduce_into(
            &mut acc,
            &4.0f64.to_le_bytes(),
            DataType::F64,
            ReduceOp::Prod,
        );
        assert_eq!(f64::from_le_bytes(acc.try_into().unwrap()), 10.0);
    }

    /// The oracle: one element at a time, the operator matched per element,
    /// `op(x[i], y[i])` with `x` as the first operand.
    fn scalar_oracle(x: &[u8], y: &[u8], dtype: DataType, op: ReduceOp) -> Vec<u8> {
        macro_rules! typed {
            ($ty:ty, $add:expr, $mul:expr) => {{
                let width = std::mem::size_of::<$ty>();
                let mut out = Vec::with_capacity(x.len());
                for i in (0..x.len()).step_by(width) {
                    let a = <$ty>::from_le_bytes(x[i..i + width].try_into().unwrap());
                    let b = <$ty>::from_le_bytes(y[i..i + width].try_into().unwrap());
                    let r: $ty = match op {
                        ReduceOp::Sum => $add(a, b),
                        ReduceOp::Prod => $mul(a, b),
                        ReduceOp::Max if a >= b => a,
                        ReduceOp::Min if a <= b => a,
                        ReduceOp::Max | ReduceOp::Min => b,
                    };
                    out.extend_from_slice(&r.to_le_bytes());
                }
                out
            }};
        }
        match dtype {
            DataType::F32 => typed!(f32, |a, b| a + b, |a, b| a * b),
            DataType::F64 => typed!(f64, |a, b| a + b, |a, b| a * b),
            DataType::I32 => typed!(i32, i32::wrapping_add, i32::wrapping_mul),
            DataType::I64 => typed!(i64, i64::wrapping_add, i64::wrapping_mul),
            DataType::U8 => typed!(u8, u8::wrapping_add, u8::wrapping_mul),
        }
    }

    /// The values where operand order, rounding and overflow show: NaN, ±0,
    /// ±inf, subnormals and the extremes, as little-endian elements.
    fn special_elems(dtype: DataType) -> Vec<Vec<u8>> {
        macro_rules! le {
            ($($v:expr),* $(,)?) => { vec![$($v.to_le_bytes().to_vec()),*] };
        }
        match dtype {
            DataType::F32 => le![
                0.0f32,
                -0.0f32,
                1.0f32,
                -1.5f32,
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::MIN_POSITIVE / 4.0,
                -f32::MIN_POSITIVE / 4.0,
                f32::MAX,
                f32::MIN,
                f32::EPSILON,
            ],
            DataType::F64 => le![
                0.0f64,
                -0.0f64,
                1.0f64,
                -1.5f64,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE / 4.0,
                -f64::MIN_POSITIVE / 4.0,
                f64::MAX,
                f64::MIN,
                f64::EPSILON,
            ],
            DataType::I32 => le![
                0i32,
                1i32,
                -1i32,
                2i32,
                i32::MAX,
                i32::MIN,
                46341i32,
                -46341i32
            ],
            DataType::I64 => le![
                0i64,
                1i64,
                -1i64,
                2i64,
                i64::MAX,
                i64::MIN,
                1i64 << 32,
                -3_037_000_500i64
            ],
            DataType::U8 => le![0u8, 1u8, 2u8, 16u8, 100u8, 128u8, 200u8, 255u8],
        }
    }

    /// Two operands of `n` elements. Even positions walk the ordered pairs of
    /// [`special_elems`] (so every special meets every other in both operand
    /// positions), odd positions hold seeded bit patterns. A random NaN is
    /// replaced by the canonical one: which payload survives `NaN + NaN` is
    /// the hardware's choice, not the kernel's.
    fn operands(dtype: DataType, n: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
        let specials = special_elems(dtype);
        let m = specials.len();
        let width = dtype.size_bytes();
        let mut state = seed;
        let mut random_elem = || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let bits = (z ^ (z >> 31)).to_le_bytes();
            match dtype {
                DataType::F32 if f32::from_le_bytes(bits[..4].try_into().unwrap()).is_nan() => {
                    f32::NAN.to_le_bytes().to_vec()
                }
                DataType::F64 if f64::from_le_bytes(bits).is_nan() => {
                    f64::NAN.to_le_bytes().to_vec()
                }
                _ => bits[..width].to_vec(),
            }
        };
        let (mut x, mut y) = (Vec::with_capacity(n * width), Vec::with_capacity(n * width));
        for k in 0..n {
            if k % 2 == 0 {
                let pair = (k / 2 + seed as usize) % (m * m);
                x.extend_from_slice(&specials[pair % m]);
                y.extend_from_slice(&specials[pair / m]);
            } else {
                x.extend(random_elem());
                y.extend(random_elem());
            }
        }
        (x, y)
    }

    #[test]
    fn kernels_match_the_scalar_oracle_for_every_dtype_op_and_length() {
        // Empty, every vector-loop tail, and one full 32 Ki-element chunk.
        let lengths = (0..=67).chain([32 * 1024]);
        for (seed, n) in lengths.enumerate() {
            for dtype in DataType::ALL {
                let (x, y) = operands(dtype, n, seed as u64);
                for op in ReduceOp::ALL {
                    let expected = scalar_oracle(&x, &y, dtype, op);
                    let what = format!("{dtype} {op} n={n}");

                    let mut acc = x.clone();
                    reduce_into(&mut acc, &y, dtype, op);
                    assert_eq!(acc, expected, "reduce_into {what}");

                    let mut inout = y.clone();
                    reduce_from(&x, &mut inout, dtype, op);
                    assert_eq!(inout, expected, "reduce_from {what}");
                }
            }
        }
    }

    #[test]
    fn reduce_from_is_reduce_into_a_copy_of_local_written_back() {
        // What the executor did before it reduced inside the received chunk;
        // Max/Min of ±0 and of NaN differ if the operands are swapped.
        for dtype in DataType::ALL {
            let m = special_elems(dtype).len();
            let (local, incoming) = operands(dtype, 2 * m * m, 0);
            for op in ReduceOp::ALL {
                let mut copy_of_local = local.clone();
                reduce_into(&mut copy_of_local, &incoming, dtype, op);
                let mut inout = incoming.clone();
                reduce_from(&local, &mut inout, dtype, op);
                assert_eq!(inout, copy_of_local, "{dtype} {op}");
            }
        }
        let (pz, nz) = (0.0f32.to_le_bytes(), (-0.0f32).to_le_bytes());
        let mut inout = nz;
        reduce_from(&pz, &mut inout, DataType::F32, ReduceOp::Max);
        assert_eq!(inout, pz, "max(+0, -0) keeps the first operand");
        let mut inout = f32::NAN.to_le_bytes();
        reduce_from(&pz, &mut inout, DataType::F32, ReduceOp::Max);
        assert!(
            f32::from_le_bytes(inout).is_nan(),
            "NaN survives as second operand"
        );
        let mut inout = pz;
        reduce_from(
            &f32::NAN.to_le_bytes(),
            &mut inout,
            DataType::F32,
            ReduceOp::Max,
        );
        assert_eq!(inout, pz, "NaN as first operand is dropped");
    }

    #[test]
    fn integer_sum_and_prod_wrap() {
        let mut acc = i32::MAX.to_le_bytes();
        reduce_into(&mut acc, &1i32.to_le_bytes(), DataType::I32, ReduceOp::Sum);
        assert_eq!(i32::from_le_bytes(acc), i32::MIN);

        let mut acc = [200u8];
        reduce_into(&mut acc, &[100u8], DataType::U8, ReduceOp::Sum);
        assert_eq!(acc, [44]);

        let mut inout = (-1i64).to_le_bytes();
        reduce_from(
            &i64::MIN.to_le_bytes(),
            &mut inout,
            DataType::I64,
            ReduceOp::Prod,
        );
        assert_eq!(i64::from_le_bytes(inout), i64::MIN);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let mut acc = vec![0u8; 4];
        reduce_into(&mut acc, &[0u8; 8], DataType::F32, ReduceOp::Sum);
    }

    #[test]
    #[should_panic(expected = "multiple of the element size")]
    fn misaligned_length_panics() {
        let mut acc = vec![0u8; 3];
        reduce_into(&mut acc, &[0u8; 3], DataType::F32, ReduceOp::Sum);
    }
}
