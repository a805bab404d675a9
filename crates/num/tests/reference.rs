//! `Int` and `Rat` against the limb-vector implementation they replace.
//!
//! `Int` stores every value in `i64` range inline and boxes only the
//! values outside it. The reference below is the previous representation,
//! kept as test code: every value, zero and one included, is a sign and a
//! base-2^32 magnitude, with the same schoolbook and Knuth-D algorithms,
//! and `RefRat` is the normalized rational over it. Every public `Int`
//! operation, and `Rat`'s `new`, `+ − × ÷`, `cmp` and `recip`, must agree
//! with it on seeded operands concentrated at the `i64` boundary, where
//! results cross between the inline and the boxed form in both
//! directions.
//!
//! Each result must also be canonical: equal to, and hashing like, the
//! value parsed back from its own decimal string (parsing stores any value
//! that fits `i64` inline). A boxed value in `i64` range would compare
//! unequal to the inline one and hash differently, which would silently
//! split the `Rat`, `LinExpr` and `AffExpr` keys of the layers above.

use cai_num::{Int, Rat, SplitMix64};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

// ---------------------------------------------------------------------------
// Reference: the limb-vector integer and its rational
// ---------------------------------------------------------------------------

/// Base-2^32 little-endian magnitude whose highest limb is nonzero.
type Limbs = Vec<u32>;

/// A sign-and-magnitude integer: `sign` is -1, 0 or 1, zero iff `mag` is
/// empty.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RefInt {
    sign: i8,
    mag: Limbs,
}

impl RefInt {
    fn zero() -> RefInt {
        RefInt {
            sign: 0,
            mag: Vec::new(),
        }
    }

    fn one() -> RefInt {
        RefInt {
            sign: 1,
            mag: vec![1],
        }
    }

    fn is_zero(&self) -> bool {
        self.sign == 0
    }

    fn is_one(&self) -> bool {
        self.sign == 1 && self.mag == [1]
    }

    fn from_limbs(negative: bool, mut mag: Limbs) -> RefInt {
        while mag.last() == Some(&0) {
            mag.pop();
        }
        let sign = if negative { -1 } else { 1 };
        RefInt::normalized(sign, mag)
    }

    fn from_i128(v: i128) -> RefInt {
        let mut m = v.unsigned_abs();
        let mut mag = Vec::new();
        while m != 0 {
            mag.push(m as u32);
            m >>= 32;
        }
        RefInt::from_limbs(v < 0, mag)
    }

    fn abs(&self) -> RefInt {
        RefInt {
            sign: self.sign.abs(),
            mag: self.mag.clone(),
        }
    }

    fn neg(&self) -> RefInt {
        RefInt {
            sign: -self.sign,
            mag: self.mag.clone(),
        }
    }

    fn to_i64(&self) -> Option<i64> {
        match self.mag.len() {
            0 => Some(0),
            1 => Some(self.sign as i64 * self.mag[0] as i64),
            2 => {
                let m = (self.mag[1] as u64) << 32 | self.mag[0] as u64;
                if self.sign > 0 && m <= i64::MAX as u64 {
                    Some(m as i64)
                } else if self.sign < 0 && m <= i64::MAX as u64 + 1 {
                    Some((-(m as i128)) as i64)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    fn gcd(&self, other: &RefInt) -> RefInt {
        let mut a = self.abs();
        let mut b = other.abs();
        while !b.is_zero() {
            let r = a.div_rem(&b).1;
            a = b;
            b = r.abs();
        }
        a
    }

    fn pow(&self, mut exp: u32) -> RefInt {
        let mut base = self.clone();
        let mut acc = RefInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul(&base);
            }
            base = base.mul(&base);
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

    /// Schoolbook long division of magnitudes (Knuth D beyond one limb).
    fn divmod_mag(a: &[u32], b: &[u32]) -> (Limbs, Limbs) {
        assert!(!b.is_empty(), "division by zero");
        if RefInt::cmp_mag(a, b) == Ordering::Less {
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
        let shift = b.last().copied().map_or(0, u32::leading_zeros);
        let bn = RefInt::shl_bits(b, shift);
        let mut an = RefInt::shl_bits(a, shift);
        an.push(0);
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
        let mut r = RefInt::shr_bits(&an[..n], shift);
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

    fn normalized(sign: i8, mag: Limbs) -> RefInt {
        if mag.is_empty() {
            RefInt::zero()
        } else {
            RefInt { sign, mag }
        }
    }

    fn div_rem(&self, other: &RefInt) -> (RefInt, RefInt) {
        assert!(!other.is_zero(), "division by zero");
        if self.is_zero() {
            return (RefInt::zero(), RefInt::zero());
        }
        let (q, r) = RefInt::divmod_mag(&self.mag, &other.mag);
        (
            RefInt::normalized(self.sign * other.sign, q),
            RefInt::normalized(self.sign, r),
        )
    }

    fn add(&self, other: &RefInt) -> RefInt {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        if self.sign == other.sign {
            return RefInt {
                sign: self.sign,
                mag: RefInt::add_mag(&self.mag, &other.mag),
            };
        }
        match RefInt::cmp_mag(&self.mag, &other.mag) {
            Ordering::Equal => RefInt::zero(),
            Ordering::Greater => RefInt {
                sign: self.sign,
                mag: RefInt::sub_mag(&self.mag, &other.mag),
            },
            Ordering::Less => RefInt {
                sign: other.sign,
                mag: RefInt::sub_mag(&other.mag, &self.mag),
            },
        }
    }

    fn sub(&self, other: &RefInt) -> RefInt {
        self.add(&other.neg())
    }

    fn mul(&self, other: &RefInt) -> RefInt {
        RefInt::normalized(
            self.sign * other.sign,
            RefInt::mul_mag(&self.mag, &other.mag),
        )
    }

    fn cmp(&self, other: &RefInt) -> Ordering {
        match self.sign.cmp(&other.sign) {
            Ordering::Equal => {}
            ord => return ord,
        }
        let mag = RefInt::cmp_mag(&self.mag, &other.mag);
        if self.sign < 0 {
            mag.reverse()
        } else {
            mag
        }
    }

    /// Parses an optionally signed decimal, folding 9-digit chunks.
    fn parse(s: &str) -> Option<RefInt> {
        let (neg, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let billion = RefInt::from_i128(1_000_000_000);
        let first_len = match digits.len() % 9 {
            0 => 9,
            r => r,
        };
        let (head, tail) = digits.split_at(first_len.min(digits.len()));
        let mut acc = RefInt::from_i128(head.parse().ok()?);
        for chunk in tail.as_bytes().chunks(9) {
            let v: i128 = std::str::from_utf8(chunk).ok()?.parse().ok()?;
            acc = acc.mul(&billion).add(&RefInt::from_i128(v));
        }
        Some(if neg { acc.neg() } else { acc })
    }
}

impl fmt::Display for RefInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        if self.sign < 0 {
            f.write_str("-")?;
        }
        let mut mag = self.mag.clone();
        let mut chunks = Vec::new();
        while !mag.is_empty() {
            let (q, r) = RefInt::divmod_mag(&mag, &[1_000_000_000]);
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

/// A rational over `RefInt` with a positive denominator, in lowest terms.
#[derive(Clone, Debug)]
struct RefRat {
    num: RefInt,
    den: RefInt,
}

impl RefRat {
    fn new(num: RefInt, den: RefInt) -> RefRat {
        assert!(!den.is_zero(), "rational with zero denominator");
        if num.is_zero() {
            return RefRat {
                num: RefInt::zero(),
                den: RefInt::one(),
            };
        }
        let g = num.gcd(&den);
        let mut num = num.div_rem(&g).0;
        let mut den = den.div_rem(&g).0;
        if den.sign < 0 {
            num = num.neg();
            den = den.neg();
        }
        RefRat { num, den }
    }

    fn add(&self, o: &RefRat) -> RefRat {
        RefRat::new(
            self.num.mul(&o.den).add(&o.num.mul(&self.den)),
            self.den.mul(&o.den),
        )
    }

    fn sub(&self, o: &RefRat) -> RefRat {
        self.add(&RefRat {
            num: o.num.neg(),
            den: o.den.clone(),
        })
    }

    fn mul(&self, o: &RefRat) -> RefRat {
        RefRat::new(self.num.mul(&o.num), self.den.mul(&o.den))
    }

    fn div(&self, o: &RefRat) -> RefRat {
        RefRat::new(self.num.mul(&o.den), self.den.mul(&o.num))
    }

    fn cmp(&self, o: &RefRat) -> Ordering {
        self.num.mul(&o.den).cmp(&o.num.mul(&self.den))
    }

    fn recip(&self) -> RefRat {
        RefRat::new(self.den.clone(), self.num.clone())
    }
}

impl fmt::Display for RefRat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

// ---------------------------------------------------------------------------
// Operands and checks
// ---------------------------------------------------------------------------

/// 0, ±1, ±2^31, ±2^32, `i64::MAX`, `i64::MIN`, `i64::MIN + 1`, ±2^63 and
/// ±2^64, each within ±2 of itself (so both sides of every boundary).
fn boundary_values() -> Vec<i128> {
    let marks: [i128; 8] = [
        0,
        1,
        1 << 31,
        1 << 32,
        i64::MAX as i128,
        (i64::MIN + 1) as i128,
        1 << 63,
        1 << 64,
    ];
    let mut out = Vec::new();
    for m in marks {
        for sign in [1, -1] {
            for off in -2..=2 {
                out.push(sign * m + off);
            }
        }
    }
    out
}

/// A seeded operand: mostly a boundary value, else a random machine
/// integer, a small one, or a random multi-limb magnitude of 3 to 6 limbs.
fn operand(g: &mut SplitMix64, boundary: &[i128]) -> RefInt {
    match g.range_i64(0, 10) {
        0..=4 => RefInt::from_i128(boundary[g.range_i64(0, boundary.len() as i64) as usize]),
        5 => RefInt::from_i128(g.next_u64() as i64 as i128),
        6 => RefInt::from_i128(g.range_i64(-1000, 1000) as i128),
        7 => {
            let a = RefInt::from_i128(boundary[g.range_i64(0, boundary.len() as i64) as usize]);
            let b = RefInt::from_i128(g.range_i64(-3, 4) as i128);
            a.mul(&b)
        }
        _ => {
            let limbs = (0..g.range_i64(3, 7))
                .map(|_| g.next_u64() as u32)
                .collect();
            RefInt::from_limbs(g.next_u64() & 1 == 1, limbs)
        }
    }
}

fn int_of(r: &RefInt) -> Int {
    r.to_string()
        .parse()
        .expect("the reference prints a decimal")
}

fn hash_of<T: Hash>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// `x` has the reference's value, and is canonical.
fn check_int(x: &Int, want: &RefInt, what: &str) {
    assert_eq!(x.to_string(), want.to_string(), "{what}");
    assert_eq!(x.to_i64(), want.to_i64(), "{what}: to_i64");
    assert_eq!(x.signum(), want.sign, "{what}: signum");
    let parsed: Int = x.to_string().parse().expect("Int prints a decimal");
    assert_eq!(*x, parsed, "{what}: not canonical");
    assert_eq!(
        hash_of(x),
        hash_of(&parsed),
        "{what}: hash differs from the parsed value"
    );
}

/// `x` has the reference's value, and is canonical.
fn check_rat(x: &Rat, want: &RefRat, what: &str) {
    assert_eq!(x.to_string(), want.to_string(), "{what}");
    check_int(x.numer(), &want.num, what);
    check_int(x.denom(), &want.den, what);
    let parsed: Rat = x.to_string().parse().expect("Rat prints a fraction");
    assert_eq!(*x, parsed, "{what}: not canonical");
    assert_eq!(
        hash_of(x),
        hash_of(&parsed),
        "{what}: hash differs from the parsed value"
    );
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[test]
fn int_ops_match_the_limb_reference() {
    let boundary = boundary_values();
    let mut g = SplitMix64::new(0x1E7_0001);
    for _ in 0..3000 {
        let (ra, rb) = (operand(&mut g, &boundary), operand(&mut g, &boundary));
        let (a, b) = (int_of(&ra), int_of(&rb));
        let case = format!("a={ra} b={rb}");
        check_int(&a, &ra, &format!("{case}: parse"));
        check_int(&(&a + &b), &ra.add(&rb), &format!("{case}: a+b"));
        check_int(&(&a - &b), &ra.sub(&rb), &format!("{case}: a-b"));
        check_int(&(&a * &b), &ra.mul(&rb), &format!("{case}: a*b"));
        check_int(&-&a, &ra.neg(), &format!("{case}: -a"));
        check_int(&-a.clone(), &ra.neg(), &format!("{case}: -a owned"));
        check_int(&a.abs(), &ra.abs(), &format!("{case}: |a|"));
        check_int(&a.gcd(&b), &ra.gcd(&rb), &format!("{case}: gcd"));
        assert_eq!(a.cmp(&b), ra.cmp(&rb), "{case}: cmp");
        assert_eq!(a == b, ra == rb, "{case}: eq");
        assert_eq!(a.is_zero(), ra.is_zero(), "{case}: is_zero");
        assert_eq!(a.is_one(), ra.is_one(), "{case}: is_one");
        if !rb.is_zero() {
            let (q, r) = a.div_rem(&b);
            let (rq, rr) = ra.div_rem(&rb);
            check_int(&q, &rq, &format!("{case}: a/b"));
            check_int(&r, &rr, &format!("{case}: a%b"));
            assert_eq!(&a / &b, q, "{case}: Div");
            assert_eq!(&a % &b, r, "{case}: Rem");
        }
        let mut acc = a.clone();
        acc += &b;
        check_int(&acc, &ra.add(&rb), &format!("{case}: a+=b"));
        let exp = g.range_i64(0, 5) as u32;
        check_int(&a.pow(exp), &ra.pow(exp), &format!("{case}: a^{exp}"));
    }
}

#[test]
fn parsing_matches_the_limb_reference() {
    let boundary = boundary_values();
    let mut g = SplitMix64::new(0x1E7_0002);
    for _ in 0..1000 {
        let r = operand(&mut g, &boundary);
        let digits = r.abs().to_string();
        let zeros = "0".repeat(g.range_i64(0, 25) as usize);
        let sign = match (r.sign < 0, g.next_u64() & 1) {
            (true, _) => "-",
            (false, 0) => "+",
            (false, _) => "",
        };
        let s = format!("{sign}{zeros}{digits}");
        let want = RefInt::parse(&s).expect("reference parses");
        let got: Int = s.parse().expect("Int parses");
        check_int(&got, &want, &format!("parse {s}"));
    }
    for bad in [
        "",
        "-",
        "+",
        "--1",
        "+-1",
        "1-",
        "12a",
        " 1",
        "9223372036854775808x",
    ] {
        assert_eq!(RefInt::parse(bad), None, "reference accepts {bad:?}");
        assert!(bad.parse::<Int>().is_err(), "Int accepts {bad:?}");
    }
    for v in [0, 1, -1, i64::MAX, i64::MIN, i64::MIN + 1] {
        check_int(
            &Int::from(v),
            &RefInt::from_i128(v as i128),
            &format!("from {v}"),
        );
    }
    check_int(
        &Int::from(usize::MAX),
        &RefInt::from_i128(usize::MAX as i128),
        "from usize::MAX",
    );
    check_int(
        &Int::from(u32::MAX),
        &RefInt::from_i128(u32::MAX as i128),
        "from u32::MAX",
    );
}

#[test]
fn rat_ops_match_the_limb_reference() {
    let boundary = boundary_values();
    let mut g = SplitMix64::new(0x1E7_0003);
    let fraction = |g: &mut SplitMix64| loop {
        let (n, d) = (operand(g, &boundary), operand(g, &boundary));
        if !d.is_zero() {
            let rat = Rat::new(int_of(&n), int_of(&d));
            let want = RefRat::new(n.clone(), d.clone());
            check_rat(&rat, &want, &format!("new({n}, {d})"));
            return (rat, want);
        }
    };
    for _ in 0..1500 {
        let (a, ra) = fraction(&mut g);
        let (b, rb) = fraction(&mut g);
        let case = format!("a={ra} b={rb}");
        check_rat(&(&a + &b), &ra.add(&rb), &format!("{case}: a+b"));
        check_rat(&(&a - &b), &ra.sub(&rb), &format!("{case}: a-b"));
        check_rat(&(&a * &b), &ra.mul(&rb), &format!("{case}: a*b"));
        assert_eq!(a.cmp(&b), ra.cmp(&rb), "{case}: cmp");
        if !rb.num.is_zero() {
            check_rat(&(&a / &b), &ra.div(&rb), &format!("{case}: a/b"));
            check_rat(&b.recip(), &rb.recip(), &format!("{case}: 1/b"));
        }
    }
    // Integers, whose sums and products skip the gcd.
    for _ in 0..1500 {
        let (ra, rb) = (operand(&mut g, &boundary), operand(&mut g, &boundary));
        let (a, b) = (Rat::from(int_of(&ra)), Rat::from(int_of(&rb)));
        let (ra, rb) = (
            RefRat::new(ra, RefInt::one()),
            RefRat::new(rb, RefInt::one()),
        );
        let case = format!("a={ra} b={rb}");
        check_rat(&(&a + &b), &ra.add(&rb), &format!("{case}: a+b"));
        check_rat(&(&a - &b), &ra.sub(&rb), &format!("{case}: a-b"));
        check_rat(&(&a * &b), &ra.mul(&rb), &format!("{case}: a*b"));
        assert_eq!(a.cmp(&b), ra.cmp(&rb), "{case}: cmp");
    }
}

#[test]
fn results_cross_the_i64_boundary_both_ways() {
    let two63: Int = "9223372036854775808".parse().expect("2^63");
    let min = Int::from(i64::MIN);
    let minus_one = Int::from(-1);
    let r = |v: i128| RefInt::from_i128(v);
    // Back into `i64` range from limbs.
    check_int(&(&two63 - &Int::one()), &r(i64::MAX as i128), "2^63 - 1");
    check_int(&-two63.clone(), &r(i64::MIN as i128), "-(2^63)");
    check_int(&-&two63, &r(i64::MIN as i128), "-(2^63) by reference");
    check_int(&(&two63 * &minus_one), &r(i64::MIN as i128), "2^63 * -1");
    check_int(&(&two63 / &Int::from(2)), &r(1 << 62), "2^63 / 2");
    check_int(&(&(&two63 * &two63) / &two63), &r(1 << 63), "2^126 / 2^63");
    check_int(&two63.gcd(&Int::from(6)), &r(2), "gcd(2^63, 6)");
    // Out of `i64` range from inline values.
    check_int(&-min.clone(), &r(1 << 63), "-i64::MIN");
    check_int(&-&min, &r(1 << 63), "-i64::MIN by reference");
    check_int(&min.abs(), &r(1 << 63), "|i64::MIN|");
    check_int(&(&min / &minus_one), &r(1 << 63), "i64::MIN / -1");
    check_int(&(&min % &minus_one), &r(0), "i64::MIN % -1");
    check_int(&min.gcd(&min), &r(1 << 63), "gcd(i64::MIN, i64::MIN)");
    check_int(&min.gcd(&Int::zero()), &r(1 << 63), "gcd(i64::MIN, 0)");
    check_int(
        &(&Int::from(i64::MAX) + &Int::one()),
        &r(1 << 63),
        "i64::MAX + 1",
    );
    check_int(
        &(&min - &Int::one()),
        &r(i64::MIN as i128 - 1),
        "i64::MIN - 1",
    );
    check_int(&(&min * &min), &r(1 << 126), "i64::MIN^2");
    let min_rat = Rat::from(min.clone());
    check_rat(
        &min_rat.recip(),
        &RefRat::new(RefInt::one(), r(i64::MIN as i128)),
        "1 / i64::MIN",
    );
    check_rat(
        &Rat::new(Int::one(), min.clone()).recip(),
        &RefRat::new(r(i64::MIN as i128), RefInt::one()),
        "1 / (1 / i64::MIN)",
    );
    check_rat(
        &Rat::new(min.clone(), minus_one.clone()),
        &RefRat::new(r(1 << 63), RefInt::one()),
        "i64::MIN / -1 as a rational",
    );
}

#[test]
fn inline_values_halve_the_size_of_int_and_rat() {
    assert_eq!(std::mem::size_of::<Int>(), 16);
    assert_eq!(std::mem::size_of::<Rat>(), 32);
}
