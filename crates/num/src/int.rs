//! Arbitrary-precision integers: inline in `i64` range, boxed limbs beyond.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Rem, Sub};
use std::str::FromStr;

/// Base-2^32 little-endian magnitude. The invariant is that the highest limb
/// is nonzero (so zero is the empty vector).
type Limbs = Vec<u32>;

/// An arbitrary-precision signed integer.
///
/// `Int` is a compact bignum sufficient for exact linear algebra:
/// addition, subtraction, multiplication, truncated division with
/// remainder, gcd, comparison, parsing and printing.
///
/// # Representation
///
/// An `Int` is one of two cases. Every value in `i64` range is stored
/// inline, so it never allocates; only a value outside that range is
/// stored as a boxed sign and limb magnitude. Arithmetic on two inline
/// values runs in machine integers (`i128` holds every sum and product of
/// two `i64`s) and promotes the result to limbs only when it leaves `i64`
/// range.
///
/// The form is canonical: a value in `i64` range is never boxed, and a
/// boxed result that shrinks back into range is demoted. So two `Int`s
/// are structurally equal iff they are numerically equal, and the derived
/// `Eq` and `Hash` agree with the numeric value, which lets `Int` (and
/// [`Rat`](crate::Rat) above it) key hash maps.
///
/// All binary operators are implemented for both owned values and
/// references, so expression-heavy code does not need explicit clones:
///
/// ```
/// use cai_num::Int;
/// let a = Int::from(7);
/// let b = Int::from(-3);
/// assert_eq!(&a + &b, Int::from(4));
/// assert_eq!(&a * &b, Int::from(-21));
/// assert_eq!((&a / &b, &a % &b), (Int::from(-2), Int::from(1)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Int(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Every value in `i64` range, and only those.
    Small(i64),
    /// A value outside `i64` range.
    Big(Box<Big>),
}

/// The sign and magnitude of a value outside `i64` range, so `mag` holds
/// at least two limbs.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Big {
    negative: bool,
    mag: Limbs,
}

impl Int {
    /// The integer zero.
    pub fn zero() -> Int {
        Int(Repr::Small(0))
    }

    /// The integer one.
    pub fn one() -> Int {
        Int(Repr::Small(1))
    }

    /// Returns `true` if this integer is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Repr::Small(0))
    }

    /// Returns `true` if this integer is one.
    pub fn is_one(&self) -> bool {
        matches!(self.0, Repr::Small(1))
    }

    /// Returns `true` if this integer is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.signum() < 0
    }

    /// Returns `true` if this integer is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.signum() > 0
    }

    /// The sign of the integer: -1, 0, or 1.
    pub fn signum(&self) -> i8 {
        match &self.0 {
            Repr::Small(v) => v.signum() as i8,
            Repr::Big(b) if b.negative => -1,
            Repr::Big(_) => 1,
        }
    }

    /// The absolute value.
    pub fn abs(&self) -> Int {
        match &self.0 {
            Repr::Small(v) => Int::from_i128(v.unsigned_abs().into()),
            Repr::Big(b) => Int::from_parts(false, b.mag.clone()),
        }
    }

    /// Converts to `i64` if the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        match self.0 {
            Repr::Small(v) => Some(v),
            Repr::Big(_) => None,
        }
    }

    fn from_i128(v: i128) -> Int {
        match i64::try_from(v) {
            Ok(v) => Int(Repr::Small(v)),
            Err(_) => Int::from_parts(v < 0, Int::limbs(v.unsigned_abs())),
        }
    }

    /// The trimmed limbs of a magnitude.
    fn limbs(mut m: u128) -> Limbs {
        let mut mag = Vec::new();
        while m != 0 {
            mag.push(m as u32);
            m >>= 32;
        }
        mag
    }

    /// The canonical `Int` of a sign and a trimmed magnitude: inline when
    /// the value fits in `i64`, boxed only otherwise.
    fn from_parts(negative: bool, mag: Limbs) -> Int {
        if mag.len() <= 2 {
            let m = mag
                .iter()
                .rev()
                .fold(0u64, |m, &limb| m << 32 | limb as u64);
            if !negative && m <= i64::MAX as u64 {
                return Int(Repr::Small(m as i64));
            }
            if negative && m <= i64::MIN.unsigned_abs() {
                return Int(Repr::Small((m as i64).wrapping_neg()));
            }
        }
        Int(Repr::Big(Box::new(Big { negative, mag })))
    }

    /// The sign and magnitude, for the limb algorithms.
    fn parts(&self) -> (bool, Cow<'_, [u32]>) {
        match &self.0 {
            Repr::Small(v) => (*v < 0, Cow::Owned(Int::limbs(v.unsigned_abs().into()))),
            Repr::Big(b) => (b.negative, Cow::Borrowed(&b.mag)),
        }
    }

    /// Greatest common divisor; always non-negative, and `gcd(0, 0) = 0`.
    pub fn gcd(&self, other: &Int) -> Int {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            return Int::from_i128(gcd_u64(a.unsigned_abs(), b.unsigned_abs()).into());
        }
        let mut a = self.abs();
        let mut b = other.abs();
        while !b.is_zero() {
            let r = &a % &b;
            a = b;
            b = r.abs();
        }
        a
    }

    /// `self` raised to the power `exp`, by repeated squaring. The result
    /// is exact: it leaves `i64` range for limbs rather than overflow.
    pub fn pow(&self, mut exp: u32) -> Int {
        let mut base = self.clone();
        let mut acc = Int::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            base = &base * &base;
            exp >>= 1;
        }
        acc
    }

    fn cmp_mag(a: &[u32], b: &[u32]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for i in (0..a.len()).rev() {
            if a[i] != b[i] {
                return a[i].cmp(&b[i]);
            }
        }
        Ordering::Equal
    }

    fn add_mag(a: &[u32], b: &[u32]) -> Limbs {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let mut s = long[i] as u64 + carry;
            if i < short.len() {
                s += short[i] as u64;
            }
            out.push(s as u32);
            carry = s >> 32;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        out
    }

    /// Requires `a >= b` in magnitude.
    fn sub_mag(a: &[u32], b: &[u32]) -> Limbs {
        debug_assert!(Int::cmp_mag(a, b) != Ordering::Less);
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0i64;
        for i in 0..a.len() {
            let mut d = a[i] as i64 - borrow;
            if i < b.len() {
                d -= b[i] as i64;
            }
            if d < 0 {
                d += 1i64 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(d as u32);
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    fn mul_mag(a: &[u32], b: &[u32]) -> Limbs {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u32; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &bj) in b.iter().enumerate() {
                let cur = out[i + j] as u64 + ai as u64 * bj as u64 + carry;
                out[i + j] = cur as u32;
                carry = cur >> 32;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let cur = out[k] as u64 + carry;
                out[k] = cur as u32;
                carry = cur >> 32;
                k += 1;
            }
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    /// Schoolbook long division of magnitudes: returns `(quotient, remainder)`.
    fn divmod_mag(a: &[u32], b: &[u32]) -> (Limbs, Limbs) {
        assert!(!b.is_empty(), "division by zero");
        if Int::cmp_mag(a, b) == Ordering::Less {
            return (Vec::new(), a.to_vec());
        }
        if b.len() == 1 {
            let d = b[0] as u64;
            let mut q = vec![0u32; a.len()];
            let mut rem = 0u64;
            for i in (0..a.len()).rev() {
                let cur = rem << 32 | a[i] as u64;
                q[i] = (cur / d) as u32;
                rem = cur % d;
            }
            while q.last() == Some(&0) {
                q.pop();
            }
            let r = if rem == 0 {
                Vec::new()
            } else {
                vec![rem as u32]
            };
            return (q, r);
        }
        // Knuth algorithm D with normalization so the divisor's top limb has
        // its high bit set.
        let shift = b.last().copied().map_or(0, u32::leading_zeros);
        let bn = Int::shl_bits(b, shift);
        let mut an = Int::shl_bits(a, shift);
        an.push(0); // room for the top partial remainder
        let n = bn.len();
        let m = an.len() - n - 1;
        let mut q = vec![0u32; m + 1];
        let btop = bn[n - 1] as u64;
        let bsecond = bn[n - 2] as u64;
        for j in (0..=m).rev() {
            let top2 = (an[j + n] as u64) << 32 | an[j + n - 1] as u64;
            let mut qhat = top2 / btop;
            let mut rhat = top2 % btop;
            while qhat >> 32 != 0 || qhat * bsecond > (rhat << 32 | an[j + n - 2] as u64) {
                qhat -= 1;
                rhat += btop;
                if rhat >> 32 != 0 {
                    break;
                }
            }
            // Multiply-and-subtract qhat * bn from an[j .. j+n].
            let mut borrow = 0i64;
            let mut carry = 0u64;
            for i in 0..n {
                let p = qhat * bn[i] as u64 + carry;
                carry = p >> 32;
                let mut d = an[j + i] as i64 - (p as u32) as i64 - borrow;
                if d < 0 {
                    d += 1i64 << 32;
                    borrow = 1;
                } else {
                    borrow = 0;
                }
                an[j + i] = d as u32;
            }
            let mut d = an[j + n] as i64 - carry as i64 - borrow;
            if d < 0 {
                // qhat was one too large: add divisor back.
                d += 1i64 << 32;
                qhat -= 1;
                let mut carry2 = 0u64;
                for i in 0..n {
                    let s = an[j + i] as u64 + bn[i] as u64 + carry2;
                    an[j + i] = s as u32;
                    carry2 = s >> 32;
                }
                d += carry2 as i64;
                d &= (1i64 << 32) - 1;
            }
            an[j + n] = d as u32;
            q[j] = qhat as u32;
        }
        while q.last() == Some(&0) {
            q.pop();
        }
        let mut r = Int::shr_bits(&an[..n], shift);
        while r.last() == Some(&0) {
            r.pop();
        }
        (q, r)
    }

    fn shl_bits(a: &[u32], shift: u32) -> Limbs {
        if shift == 0 {
            return a.to_vec();
        }
        let mut out = Vec::with_capacity(a.len() + 1);
        let mut carry = 0u32;
        for &limb in a {
            out.push(limb << shift | carry);
            carry = limb >> (32 - shift);
        }
        if carry != 0 {
            out.push(carry);
        }
        out
    }

    fn shr_bits(a: &[u32], shift: u32) -> Limbs {
        if shift == 0 {
            return a.to_vec();
        }
        let mut out = vec![0u32; a.len()];
        let mut carry = 0u32;
        for i in (0..a.len()).rev() {
            out[i] = a[i] >> shift | carry;
            carry = a[i] << (32 - shift);
        }
        out
    }

    /// The signed sum `a + b` of two sign-magnitude values.
    fn add_parts(a_neg: bool, a: &[u32], b_neg: bool, b: &[u32]) -> Int {
        if a_neg == b_neg {
            return Int::from_parts(a_neg, Int::add_mag(a, b));
        }
        match Int::cmp_mag(a, b) {
            Ordering::Equal => Int::zero(),
            Ordering::Greater => Int::from_parts(a_neg, Int::sub_mag(a, b)),
            Ordering::Less => Int::from_parts(b_neg, Int::sub_mag(b, a)),
        }
    }

    /// Truncated division with remainder: `self = q * other + r` with
    /// `|r| < |other|` and `r` carrying the sign of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_rem(&self, other: &Int) -> (Int, Int) {
        assert!(!other.is_zero(), "division by zero");
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            return match a.checked_div(*b) {
                Some(q) => (Int(Repr::Small(q)), Int(Repr::Small(a % b))),
                // `i64::MIN / -1`: the quotient 2^63 leaves `i64` range.
                None => (Int::from_i128(-(*a as i128)), Int::zero()),
            };
        }
        let (a_neg, a) = self.parts();
        let (b_neg, b) = other.parts();
        let (q, r) = Int::divmod_mag(&a, &b);
        (
            Int::from_parts(a_neg != b_neg, q),
            Int::from_parts(a_neg, r),
        )
    }
}

/// Euclid's gcd of two machine magnitudes.
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl Default for Int {
    /// The integer zero.
    fn default() -> Int {
        Int::zero()
    }
}

impl From<i64> for Int {
    fn from(v: i64) -> Int {
        Int(Repr::Small(v))
    }
}

impl From<i32> for Int {
    fn from(v: i32) -> Int {
        Int::from(v as i64)
    }
}

impl From<u32> for Int {
    fn from(v: u32) -> Int {
        Int::from(v as i64)
    }
}

impl From<usize> for Int {
    fn from(v: usize) -> Int {
        Int::from_i128(v as i128)
    }
}

impl PartialOrd for Int {
    fn partial_cmp(&self, other: &Int) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Int {
    fn cmp(&self, other: &Int) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::Small(a), Repr::Small(b)) => a.cmp(b),
            // A boxed value lies beyond every inline one, on its sign's side.
            (Repr::Small(_), Repr::Big(b)) if b.negative => Ordering::Greater,
            (Repr::Small(_), Repr::Big(_)) => Ordering::Less,
            (Repr::Big(a), Repr::Small(_)) if a.negative => Ordering::Less,
            (Repr::Big(_), Repr::Small(_)) => Ordering::Greater,
            (Repr::Big(a), Repr::Big(b)) => match (a.negative, b.negative) {
                (false, false) => Int::cmp_mag(&a.mag, &b.mag),
                (true, true) => Int::cmp_mag(&b.mag, &a.mag),
                (false, true) => Ordering::Greater,
                (true, false) => Ordering::Less,
            },
        }
    }
}

impl Neg for Int {
    type Output = Int;
    fn neg(self) -> Int {
        match self.0 {
            Repr::Small(v) => Int::from_i128(-(v as i128)),
            Repr::Big(b) => Int::from_parts(!b.negative, b.mag),
        }
    }
}

impl Neg for &Int {
    type Output = Int;
    fn neg(self) -> Int {
        -self.clone()
    }
}

impl Add for &Int {
    type Output = Int;
    fn add(self, other: &Int) -> Int {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            return Int::from_i128(*a as i128 + *b as i128);
        }
        let (a_neg, a) = self.parts();
        let (b_neg, b) = other.parts();
        Int::add_parts(a_neg, &a, b_neg, &b)
    }
}

impl Sub for &Int {
    type Output = Int;
    fn sub(self, other: &Int) -> Int {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            return Int::from_i128(*a as i128 - *b as i128);
        }
        let (a_neg, a) = self.parts();
        let (b_neg, b) = other.parts();
        Int::add_parts(a_neg, &a, !b_neg, &b)
    }
}

impl Mul for &Int {
    type Output = Int;
    fn mul(self, other: &Int) -> Int {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            return Int::from_i128(*a as i128 * *b as i128);
        }
        let (a_neg, a) = self.parts();
        let (b_neg, b) = other.parts();
        Int::from_parts(a_neg != b_neg, Int::mul_mag(&a, &b))
    }
}

impl Div for &Int {
    type Output = Int;
    fn div(self, other: &Int) -> Int {
        self.div_rem(other).0
    }
}

impl Rem for &Int {
    type Output = Int;
    fn rem(self, other: &Int) -> Int {
        self.div_rem(other).1
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for Int {
            type Output = Int;
            fn $method(self, other: Int) -> Int {
                (&self).$method(&other)
            }
        }
        impl $trait<&Int> for Int {
            type Output = Int;
            fn $method(self, other: &Int) -> Int {
                (&self).$method(other)
            }
        }
        impl $trait<Int> for &Int {
            type Output = Int;
            fn $method(self, other: Int) -> Int {
                self.$method(&other)
            }
        }
    };
}

forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);
forward_owned_binop!(Div, div);
forward_owned_binop!(Rem, rem);

impl AddAssign<&Int> for Int {
    fn add_assign(&mut self, other: &Int) {
        *self = &*self + other;
    }
}

impl fmt::Display for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = match &self.0 {
            Repr::Small(v) => return write!(f, "{v}"),
            Repr::Big(b) => b,
        };
        if b.negative {
            f.write_str("-")?;
        }
        // Repeated division by 10^9, collecting 9-digit chunks.
        let mut mag = b.mag.clone();
        let mut chunks = Vec::new();
        while !mag.is_empty() {
            let (q, r) = Int::divmod_mag(&mag, &[1_000_000_000]);
            chunks.push(if r.is_empty() { 0 } else { r[0] });
            mag = q;
        }
        let mut s = chunks.last().copied().unwrap_or(0).to_string();
        for chunk in chunks.iter().rev().skip(1) {
            s.push_str(&format!("{:09}", chunk));
        }
        f.write_str(&s)
    }
}

impl fmt::Debug for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// The error returned when parsing an [`Int`] from a malformed string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIntError;

impl fmt::Display for ParseIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid integer literal")
    }
}

impl std::error::Error for ParseIntError {}

impl FromStr for Int {
    type Err = ParseIntError;

    fn from_str(s: &str) -> Result<Int, ParseIntError> {
        let (neg, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseIntError);
        }
        if let Ok(v) = s.parse::<i64>() {
            return Ok(Int::from(v));
        }
        // Out of `i64` range: split into a short leading chunk followed by
        // exact 9-digit chunks, folding with base 10^9.
        let billion = Int::from(1_000_000_000i64);
        let first_len = match digits.len() % 9 {
            0 => 9,
            r => r,
        };
        let (head, tail) = digits.split_at(first_len.min(digits.len()));
        let v: i64 = head.parse().map_err(|_| ParseIntError)?;
        let mut acc = Int::from(v);
        for chunk in tail.as_bytes().chunks(9) {
            let chunk_str = std::str::from_utf8(chunk).expect("ascii digits");
            let v: i64 = chunk_str.parse().map_err(|_| ParseIntError)?;
            acc = &(&acc * &billion) + &Int::from(v);
        }
        if neg {
            acc = -acc;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_arithmetic() {
        let a = Int::from(12);
        let b = Int::from(-5);
        assert_eq!(&a + &b, Int::from(7));
        assert_eq!(&a - &b, Int::from(17));
        assert_eq!(&a * &b, Int::from(-60));
        assert_eq!(&a / &b, Int::from(-2));
        assert_eq!(&a % &b, Int::from(2));
    }

    #[test]
    fn zero_behaviour() {
        assert!(Int::zero().is_zero());
        assert_eq!(Int::from(0), Int::zero());
        assert_eq!(&Int::from(5) + &Int::from(-5), Int::zero());
        assert_eq!(Int::zero().to_string(), "0");
        assert_eq!(-Int::zero(), Int::zero());
    }

    #[test]
    fn large_multiplication() {
        let a: Int = "123456789012345678901234567890".parse().unwrap();
        let b: Int = "987654321098765432109876543210".parse().unwrap();
        let p = &a * &b;
        assert_eq!(
            p.to_string(),
            "121932631137021795226185032733622923332237463801111263526900"
        );
    }

    #[test]
    fn large_division_roundtrip() {
        let a: Int = "340282366920938463463374607431768211456".parse().unwrap();
        let b: Int = "18446744073709551629".parse().unwrap();
        let (q, r) = a.div_rem(&b);
        assert_eq!(&(&q * &b) + &r, a);
        assert!(r.abs() < b.abs());
    }

    #[test]
    fn division_signs_match_truncation() {
        for (x, y) in [(7i64, 3i64), (-7, 3), (7, -3), (-7, -3)] {
            let (q, r) = Int::from(x).div_rem(&Int::from(y));
            assert_eq!(q, Int::from(x / y), "{x}/{y}");
            assert_eq!(r, Int::from(x % y), "{x}%{y}");
        }
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(Int::from(12).gcd(&Int::from(18)), Int::from(6));
        assert_eq!(Int::from(-12).gcd(&Int::from(18)), Int::from(6));
        assert_eq!(Int::from(0).gcd(&Int::from(5)), Int::from(5));
        assert_eq!(Int::from(0).gcd(&Int::from(0)), Int::from(0));
    }

    #[test]
    fn ordering() {
        let mut v = [
            Int::from(3),
            Int::from(-10),
            Int::from(0),
            "100000000000000000000".parse::<Int>().unwrap(),
            Int::from(-1),
        ];
        v.sort();
        let shown: Vec<String> = v.iter().map(|x| x.to_string()).collect();
        assert_eq!(shown, ["-10", "-1", "0", "3", "100000000000000000000"]);
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in [
            "0",
            "1",
            "-1",
            "999999999",
            "1000000000",
            "-123456789012345678901234567890",
        ] {
            let n: Int = s.parse().unwrap();
            assert_eq!(n.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Int>().is_err());
        assert!("12a".parse::<Int>().is_err());
        assert!("-".parse::<Int>().is_err());
        assert!("--3".parse::<Int>().is_err());
    }

    #[test]
    fn to_i64_bounds() {
        assert_eq!(Int::from(i64::MAX).to_i64(), Some(i64::MAX));
        assert_eq!(Int::from(i64::MIN).to_i64(), Some(i64::MIN));
        let big = &Int::from(i64::MAX) + &Int::one();
        assert_eq!(big.to_i64(), None);
        assert_eq!((-big).to_i64(), Some(i64::MIN));
    }

    #[test]
    fn pow() {
        assert_eq!(Int::from(2).pow(10), Int::from(1024));
        assert_eq!(Int::from(10).pow(0), Int::one());
        assert_eq!(Int::from(3).pow(40).to_string(), "12157665459056928801");
    }
}
