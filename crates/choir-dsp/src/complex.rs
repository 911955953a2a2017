//! Double-precision complex numbers.
//!
//! The approved dependency set contains no complex-number crate, so Choir
//! carries its own minimal, well-tested implementation. Only the operations
//! the DSP pipeline needs are provided; the type is `Copy` and all operators
//! are implemented for value and reference operands alike.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + j·im` backed by two `f64`s.
///
/// `#[repr(C)]` pins the layout to `re` then `im`, so a `[C64]` is
/// layout-compatible with interleaved `f64` IQ pairs — the SIMD
/// backends (`crate::backend`) rely on this for their lane loads.
#[repr(C)]
#[derive(Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Shorthand constructor: `c64(re, im)`.
#[inline]
pub const fn c64(re: f64, im: f64) -> C64 {
    C64 { re, im }
}

impl C64 {
    /// The additive identity, `0 + 0j`.
    pub const ZERO: C64 = c64(0.0, 0.0);
    /// The multiplicative identity, `1 + 0j`.
    pub const ONE: C64 = c64(1.0, 0.0);
    /// The imaginary unit, `0 + 1j`.
    pub const I: C64 = c64(0.0, 1.0);

    /// Builds a complex number from its real part (imaginary part zero).
    #[inline]
    pub const fn from_re(re: f64) -> Self {
        c64(re, 0.0)
    }

    /// Builds a complex number from polar coordinates `r·e^{jθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        c64(r * theta.cos(), r * theta.sin())
    }

    /// `e^{jθ}` — a unit phasor. The workhorse of every mixer in this
    /// code base.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        c64(theta.cos(), theta.sin())
    }

    /// Complex conjugate `re - j·im`.
    #[inline]
    pub fn conj(self) -> Self {
        c64(self.re, -self.im)
    }

    /// Squared magnitude `re² + im²` (no square root — prefer this in
    /// power computations).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`. Returns NaNs for zero input.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        c64(self.re / d, -self.im / d)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        c64(self.re * s, self.im * s)
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        Self::from_polar(self.abs().sqrt(), self.arg() / 2.0)
    }

    /// True when either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// True when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Debug for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.6}{:+.6}j", self.re, self.im)
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+}{:+}j", self.re, self.im)
    }
}

impl From<f64> for C64 {
    #[inline]
    fn from(re: f64) -> Self {
        Self::from_re(re)
    }
}

macro_rules! binop {
    ($trait:ident, $method:ident, |$a:ident, $b:ident| $body:expr) => {
        impl $trait for C64 {
            type Output = C64;
            #[inline]
            fn $method(self, rhs: C64) -> C64 {
                let ($a, $b) = (self, rhs);
                $body
            }
        }
        impl $trait<&C64> for C64 {
            type Output = C64;
            #[inline]
            fn $method(self, rhs: &C64) -> C64 {
                $trait::$method(self, *rhs)
            }
        }
        impl $trait<C64> for &C64 {
            type Output = C64;
            #[inline]
            fn $method(self, rhs: C64) -> C64 {
                $trait::$method(*self, rhs)
            }
        }
        impl $trait<&C64> for &C64 {
            type Output = C64;
            #[inline]
            fn $method(self, rhs: &C64) -> C64 {
                $trait::$method(*self, *rhs)
            }
        }
    };
}

binop!(Add, add, |a, b| c64(a.re + b.re, a.im + b.im));
binop!(Sub, sub, |a, b| c64(a.re - b.re, a.im - b.im));
binop!(Mul, mul, |a, b| c64(
    a.re * b.re - a.im * b.im,
    a.re * b.im + a.im * b.re
));
binop!(Div, div, |a, b| {
    let d = b.norm_sqr();
    c64(
        (a.re * b.re + a.im * b.im) / d,
        (a.im * b.re - a.re * b.im) / d,
    )
});

impl Neg for C64 {
    type Output = C64;
    #[inline]
    fn neg(self) -> C64 {
        c64(-self.re, -self.im)
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, s: f64) -> C64 {
        self.scale(s)
    }
}

impl Mul<C64> for f64 {
    type Output = C64;
    #[inline]
    fn mul(self, z: C64) -> C64 {
        z.scale(self)
    }
}

impl Div<f64> for C64 {
    type Output = C64;
    #[inline]
    fn div(self, s: f64) -> C64 {
        c64(self.re / s, self.im / s)
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, rhs: C64) {
        *self = *self + rhs;
    }
}
impl SubAssign for C64 {
    #[inline]
    fn sub_assign(&mut self, rhs: C64) {
        *self = *self - rhs;
    }
}
impl MulAssign for C64 {
    #[inline]
    fn mul_assign(&mut self, rhs: C64) {
        *self = *self * rhs;
    }
}
impl DivAssign for C64 {
    #[inline]
    fn div_assign(&mut self, rhs: C64) {
        *self = *self / rhs;
    }
}
impl MulAssign<f64> for C64 {
    #[inline]
    fn mul_assign(&mut self, s: f64) {
        *self = self.scale(s);
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = C64>>(iter: I) -> C64 {
        iter.fold(C64::ZERO, |acc, z| acc + z)
    }
}

impl<'a> Sum<&'a C64> for C64 {
    fn sum<I: Iterator<Item = &'a C64>>(iter: I) -> C64 {
        iter.fold(C64::ZERO, |acc, z| acc + *z)
    }
}

/// Total signal energy `Σ |x[n]|²`.
pub fn energy(x: &[C64]) -> f64 {
    x.iter().map(|z| z.norm_sqr()).sum()
}

/// Mean signal power `energy / len` (zero for an empty slice).
pub fn power(x: &[C64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        energy(x) / x.len() as f64
    }
}

/// Inner product `Σ a[n]·conj(b[n])` (correlation of `a` against `b`).
///
/// Dispatches as `conj_dot(b, a)`: complex multiplication is
/// bit-commutative (each component is the same two products, summed in
/// either order, and IEEE addition of numbers is commutative), so
/// `a·conj(b) ≡ conj(b)·a` exactly.
pub fn inner(a: &[C64], b: &[C64]) -> C64 {
    assert_eq!(a.len(), b.len(), "inner: length mismatch");
    crate::backend::conj_dot(b, a)
}

// Tests assert on exactly-representable values (0.0, bin centres).
#[allow(clippy::float_cmp)]
#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn close(a: C64, b: C64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn construction_and_constants() {
        assert_eq!(C64::ZERO + C64::ONE, C64::ONE);
        assert_eq!(C64::I * C64::I, -C64::ONE);
        assert_eq!(C64::from_re(2.5), c64(2.5, 0.0));
        assert_eq!(C64::from(3.0), c64(3.0, 0.0));
    }

    #[test]
    fn polar_roundtrip() {
        let z = C64::from_polar(2.0, 0.7);
        assert!((z.abs() - 2.0).abs() < EPS);
        assert!((z.arg() - 0.7).abs() < EPS);
    }

    #[test]
    fn cis_is_unit() {
        for k in 0..16 {
            let t = k as f64 * 0.41;
            assert!((C64::cis(t).abs() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn arithmetic() {
        let a = c64(1.0, 2.0);
        let b = c64(3.0, -4.0);
        assert_eq!(a + b, c64(4.0, -2.0));
        assert_eq!(a - b, c64(-2.0, 6.0));
        assert_eq!(a * b, c64(11.0, 2.0));
        assert!(close(a / b * b, a));
        assert!(close(a * a.inv(), C64::ONE));
    }

    #[test]
    // This test exists to exercise the by-reference operator impls.
    #[allow(clippy::op_ref)]
    fn reference_operands() {
        let a = c64(1.0, 1.0);
        let b = c64(2.0, 3.0);
        assert_eq!(&a + &b, a + b);
        assert_eq!(a * &b, a * b);
        assert_eq!(&a - b, a - b);
        assert_eq!(&a / &b, a / b);
    }

    #[test]
    fn conj_and_norms() {
        let z = c64(3.0, 4.0);
        assert_eq!(z.conj(), c64(3.0, -4.0));
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.abs(), 5.0);
        assert!((z * z.conj()).im.abs() < EPS);
    }

    #[test]
    fn exp_matches_euler() {
        let z = c64(0.0, std::f64::consts::PI);
        assert!(close(z.exp(), -C64::ONE));
        let w = c64(1.0, 0.5);
        let e = w.exp();
        assert!((e.abs() - 1.0f64.exp()).abs() < 1e-9);
        assert!((e.arg() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn sqrt_squares_back() {
        for &z in &[c64(4.0, 0.0), c64(-1.0, 0.0), c64(3.0, -4.0)] {
            let r = z.sqrt();
            assert!(close(r * r, z));
        }
    }

    #[test]
    fn assign_ops() {
        let mut z = c64(1.0, 1.0);
        z += c64(1.0, 0.0);
        assert_eq!(z, c64(2.0, 1.0));
        z -= c64(0.0, 1.0);
        assert_eq!(z, c64(2.0, 0.0));
        z *= c64(0.0, 1.0);
        assert_eq!(z, c64(0.0, 2.0));
        z /= c64(0.0, 1.0);
        assert_eq!(z, c64(2.0, 0.0));
        z *= 0.5;
        assert_eq!(z, c64(1.0, 0.0));
    }

    #[test]
    fn sum_over_iterators() {
        let v = vec![c64(1.0, 0.0), c64(0.0, 1.0), c64(2.0, 2.0)];
        let s: C64 = v.iter().sum();
        assert_eq!(s, c64(3.0, 3.0));
        let s2: C64 = v.into_iter().sum();
        assert_eq!(s2, c64(3.0, 3.0));
    }

    #[test]
    fn energy_power_helpers() {
        let v = vec![c64(1.0, 0.0), c64(0.0, 2.0)];
        assert_eq!(energy(&v), 5.0);
        assert_eq!(power(&v), 2.5);
        assert_eq!(power(&[]), 0.0);
    }

    #[test]
    fn inner_product_is_hermitian() {
        let a = vec![c64(1.0, 2.0), c64(-1.0, 0.5)];
        let b = vec![c64(0.0, 1.0), c64(2.0, -2.0)];
        let ab = inner(&a, &b);
        let ba = inner(&b, &a);
        assert!(close(ab, ba.conj()));
        // Inner product with itself equals energy.
        assert!((inner(&a, &a).re - energy(&a)).abs() < EPS);
        assert!(inner(&a, &a).im.abs() < EPS);
    }
}
