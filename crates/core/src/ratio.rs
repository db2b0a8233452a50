//! Exact rational numbers for utilization metrics.

use core::cmp::Ordering;
use core::fmt;
use core::hash::{Hash, Hasher};

/// An exact non-negative rational, used for the min-power utilization
/// `ρ_σ(P_min)` so tests can compare utilizations without floating
/// point error.
///
/// Stored as given, with a positive denominator, and reduced only when
/// its digits are read ([`Ratio::reduced`], [`Ratio::numerator`],
/// [`Ratio::denominator`], `Display`, `Debug`, `Hash`,
/// [`Ratio::to_f64`]): comparing two values cross-multiplies and needs
/// no GCD, so a caller that builds a ratio per candidate only to
/// compare it pays no reduction. Equality and order are exact for
/// every value [`Ratio::new`] accepts; `2/4 == 1/2`.
///
/// # Examples
/// ```
/// use pas_core::Ratio;
/// let r = Ratio::new(817, 900);
/// assert_eq!(r.to_string(), "90.8%");
/// assert!(r < Ratio::ONE);
/// assert_eq!(Ratio::new(50, 100).reduced(), (1, 2));
/// ```
#[derive(Clone, Copy)]
pub struct Ratio {
    num: i128,
    den: i128,
}

impl Ratio {
    /// Zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// One (full utilization).
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Creates `num / den`. The value is kept unreduced.
    ///
    /// # Panics
    /// Panics if `den == 0` or the value is negative.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "ratio denominator must be non-zero");
        let (num, den) = if den < 0 { (-num, -den) } else { (num, den) };
        assert!(num >= 0, "ratio must be non-negative");
        Ratio { num, den }
    }

    /// The reduced numerator and denominator (the denominator is
    /// positive), from one GCD.
    pub fn reduced(self) -> (i128, i128) {
        let g = gcd(self.num, self.den);
        (self.num / g, self.den / g)
    }

    /// The reduced numerator.
    #[inline]
    pub fn numerator(self) -> i128 {
        self.reduced().0
    }

    /// The reduced denominator (always positive).
    #[inline]
    pub fn denominator(self) -> i128 {
        self.reduced().1
    }

    /// `true` when exactly 1.
    #[inline]
    pub fn is_one(self) -> bool {
        self.num == self.den
    }

    /// Value as `f64` (for display and plotting only).
    #[inline]
    pub fn to_f64(self) -> f64 {
        let (num, den) = self.reduced();
        num as f64 / den as f64
    }

    /// Value in percent as `f64`.
    #[inline]
    pub fn to_percent(self) -> f64 {
        self.to_f64() * 100.0
    }
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    if a == 0 {
        1
    } else {
        a
    }
}

/// Compares `a/b` with `c/d` (`a, c ≥ 0`, `b, d > 0`) without a
/// product: equal integer parts reduce the question to the inverted
/// remainders, one continued-fraction term per round, as in Euclid's
/// algorithm.
fn cmp_continued(mut a: i128, mut b: i128, mut c: i128, mut d: i128) -> Ordering {
    let mut inverted = false;
    let order = loop {
        let (q1, q2) = (a / b, c / d);
        if q1 != q2 {
            break q1.cmp(&q2);
        }
        let (r1, r2) = (a % b, c % d);
        match (r1 == 0, r2 == 0) {
            (true, true) => break Ordering::Equal,
            (true, false) => break Ordering::Less,
            (false, true) => break Ordering::Greater,
            // r1/b vs r2/d, both in (0, 1), orders as d/r2 vs b/r1.
            (false, false) => (a, b, c, d) = (b, r1, d, r2),
        }
        inverted = !inverted;
    };
    if inverted {
        order.reverse()
    } else {
        order
    }
}

impl PartialEq for Ratio {
    fn eq(&self, other: &Ratio) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ratio {}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    /// Exact: cross-multiplies when both products fit `i128`, and
    /// falls back to [`cmp_continued`] when one does not.
    fn cmp(&self, other: &Ratio) -> Ordering {
        match (
            self.num.checked_mul(other.den),
            other.num.checked_mul(self.den),
        ) {
            (Some(lhs), Some(rhs)) => lhs.cmp(&rhs),
            _ => cmp_continued(self.num, self.den, other.num, other.den),
        }
    }
}

impl Hash for Ratio {
    /// Hashes the reduced form, so equal values hash alike.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (num, den) = self.reduced();
        num.hash(state);
        den.hash(state);
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (num, den) = self.reduced();
        f.debug_struct("Ratio")
            .field("num", &num)
            .field("den", &den)
            .finish()
    }
}

impl fmt::Display for Ratio {
    /// Formats as a percentage with one decimal place, trimming a
    /// trailing `.0` (`"60%"`, `"90.8%"`). Exact for every value: the
    /// integer part is split off first, so no product overflows.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Percent · 10, rounded half up, is `⌊(1000·num + ⌊den/2⌋) / den⌋`
        // = `1000·q + ⌊(1000·r + ⌊den/2⌋) / den⌋` for `num = q·den + r`.
        let (num, den) = self.reduced();
        let (q, r, den) = ((num / den) as u128, (num % den) as u128, den as u128);
        let tenths = scaled_quotient(r, 1000, den / 2, den); // 0..=1000
        let hundreds = q + tenths / 1000; // percent / 100
        let (percent, frac) = (tenths % 1000 / 10, tenths % 10);
        if hundreds == 0 {
            write!(f, "{percent}")?;
        } else {
            write!(f, "{hundreds}{percent:02}")?;
        }
        if frac != 0 {
            write!(f, ".{frac}")?;
        }
        f.write_str("%")
    }
}

/// `⌊(k·r + h) / d⌋` for `r, h < d < 2^127`, by shift-and-subtract over
/// the bits of `k`: the running remainder stays below `d`, so no step
/// leaves `u128`.
fn scaled_quotient(r: u128, k: u32, h: u128, d: u128) -> u128 {
    let (mut q, mut rem) = (0u128, 0u128);
    for bit in (0..u32::BITS - k.leading_zeros()).rev() {
        q *= 2;
        rem *= 2;
        if rem >= d {
            q += 1;
            rem -= d;
        }
        if k >> bit & 1 == 1 {
            rem += r;
            if rem >= d {
                q += 1;
                rem -= d;
            }
        }
    }
    q + u128::from(rem + h >= d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_and_accessors() {
        let r = Ratio::new(50, 100);
        assert_eq!(r.numerator(), 1);
        assert_eq!(r.denominator(), 2);
        assert_eq!(r.reduced(), (1, 2));
        assert_eq!(Ratio::new(-3, -4), Ratio::new(3, 4));
        assert_eq!(
            format!("{:?}", Ratio::new(0, 7)),
            "Ratio { num: 0, den: 1 }"
        );
    }

    /// The semantics `Ratio` had when it reduced at construction.
    #[derive(Debug, PartialEq, Eq, Hash)]
    struct Reference {
        num: i128,
        den: i128,
    }

    impl Reference {
        fn new(num: i128, den: i128) -> Self {
            let g = gcd(num, den);
            Reference {
                num: num / g,
                den: den / g,
            }
        }

        fn cmp(&self, other: &Reference) -> Ordering {
            (self.num * other.den).cmp(&(other.num * self.den))
        }

        fn display(&self) -> String {
            let tenths = (self.num * 1000 + self.den / 2) / self.den;
            match tenths % 10 {
                0 => format!("{}%", tenths / 10),
                frac => format!("{}.{frac}%", tenths / 10),
            }
        }
    }

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    /// SplitMix64 draws below `2^bits`.
    fn draw(state: &mut u64, bits: u32) -> i128 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        i128::from((z ^ (z >> 31)) >> (64 - bits))
    }

    #[test]
    fn unreduced_values_read_like_the_reduced_reference() {
        let mut state = 0x5EED;
        let mut values = Vec::new();
        for round in 0..300 {
            // Small bases make equal values and exact ones common;
            // 50-bit bases with 40-bit scales overflow the cross
            // products and take the continued-fraction comparison.
            let bits = if round % 2 == 0 { 6 } else { 50 };
            let num = draw(&mut state, bits);
            let den = draw(&mut state, bits) + 1;
            for scale in [1, draw(&mut state, 8) + 1, draw(&mut state, 40) + 1] {
                values.push(Ratio::new(num * scale, den * scale));
            }
        }
        values.extend([Ratio::ZERO, Ratio::ONE, Ratio::new(12, 12)]);
        let reference = |r: Ratio| Reference::new(r.num, r.den);
        for &x in &values {
            let rx = reference(x);
            assert_eq!((x.numerator(), x.denominator()), (rx.num, rx.den));
            assert_eq!(x.reduced(), (rx.num, rx.den));
            assert_eq!(
                format!("{x:?}"),
                format!("{rx:?}").replace("Reference", "Ratio")
            );
            assert_eq!(x.to_string(), rx.display());
            assert_eq!(hash_of(&x), hash_of(&rx));
            assert_eq!(
                x.to_f64().to_bits(),
                (rx.num as f64 / rx.den as f64).to_bits()
            );
            assert_eq!(x.is_one(), rx.num == rx.den);
        }
        let mut equal = 0;
        for (i, &x) in values.iter().enumerate() {
            for &y in &values[i.saturating_sub(40)..] {
                let (rx, ry) = (reference(x), reference(y));
                assert_eq!(x.cmp(&y), rx.cmp(&ry), "{x:?} vs {y:?}");
                assert_eq!(x == y, rx == ry, "{x:?} vs {y:?}");
                assert_eq!(x.partial_cmp(&y), Some(rx.cmp(&ry)));
                equal += usize::from(x == y && (x.num, x.den) != (y.num, y.den));
            }
        }
        assert!(equal > 100, "scaled copies compared equal {equal} times");
    }

    #[test]
    fn comparisons_near_i128_max_are_exact() {
        const MAX: i128 = i128::MAX;
        let big = Ratio::new(MAX, 1);
        assert!(big > Ratio::new(MAX - 1, 1));
        assert!(Ratio::new(MAX - 1, 1) < big);
        assert_eq!(Ratio::new(MAX, MAX), Ratio::ONE);
        assert!(Ratio::new(MAX, MAX).is_one());
        assert_eq!(hash_of(&Ratio::new(MAX, MAX)), hash_of(&Ratio::ONE));
        // 2^127 − 1 ≡ 1 (mod 3) and (mod 7), so both quotients drop the
        // same 1 and the value is exactly 7/3.
        let (third, seventh) = (MAX / 3, MAX / 7);
        let r = Ratio::new(third, seventh);
        assert_eq!(r, Ratio::new(7, 3));
        assert_eq!(r.reduced(), (7, 3));
        assert!(r > Ratio::new(seventh, third));
        assert!(Ratio::new(seventh, third) < r);
        assert_eq!(Ratio::new(seventh, third), Ratio::new(3, 7));
        assert!(r > Ratio::new(third - 1, seventh));
        assert!(r < Ratio::new(third, seventh - 1));
        // 1 + 1/(MAX − 1) < 1 + 1/(MAX − 2).
        assert!(Ratio::new(MAX, MAX - 1) < Ratio::new(MAX - 1, MAX - 2));
        assert!(Ratio::new(MAX - 1, MAX - 2) > Ratio::new(MAX, MAX - 1));
        assert!(Ratio::new(1, MAX) > Ratio::ZERO);
        assert!(Ratio::new(1, MAX) < Ratio::new(1, MAX - 1));
        assert_eq!(Ratio::new(0, MAX), Ratio::ZERO);
        assert!(big > Ratio::new(MAX, MAX - 1));
    }

    #[test]
    fn display_is_exact_near_i128_max() {
        const MAX: i128 = i128::MAX;
        assert_eq!(Ratio::new(MAX, 1).to_string(), format!("{MAX}00%"));
        assert_eq!(Ratio::new(MAX, MAX - 1).to_string(), "100%");
        assert_eq!(Ratio::new(1, MAX).to_string(), "0%");
        assert_eq!(Ratio::new(MAX / 3, MAX / 7).to_string(), "233.3%");
        assert_eq!(Ratio::new(MAX / 2, MAX).to_string(), "50%");
        // Rounds half up into the next hundred: 99.95% shows as 100%.
        assert_eq!(Ratio::new(9_995, 10_000).to_string(), "100%");
        assert_eq!(Ratio::new(19_995, 10_000).to_string(), "200%");
        assert_eq!(Ratio::new(1_005, 1_000).to_string(), "100.5%");
    }

    #[test]
    fn ordering() {
        assert!(Ratio::new(1, 2) < Ratio::new(2, 3));
        assert!(Ratio::ONE > Ratio::new(99, 100));
        assert_eq!(Ratio::new(2, 4).cmp(&Ratio::new(1, 2)), Ordering::Equal);
    }

    #[test]
    fn display_percentages_match_paper_style() {
        assert_eq!(Ratio::new(3, 5).to_string(), "60%"); // best-case JPL
        assert_eq!(Ratio::new(817, 900).to_string(), "90.8%"); // typical JPL
        assert_eq!(Ratio::ONE.to_string(), "100%"); // worst case
        assert_eq!(Ratio::ZERO.to_string(), "0%");
    }

    #[test]
    fn is_one_and_to_f64() {
        assert!(Ratio::new(7, 7).is_one());
        assert!(!Ratio::new(6, 7).is_one());
        assert!((Ratio::new(1, 4).to_f64() - 0.25).abs() < 1e-12);
        assert!((Ratio::new(1, 4).to_percent() - 25.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "denominator must be non-zero")]
    fn zero_denominator_rejected() {
        let _ = Ratio::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "must be non-negative")]
    fn negative_value_rejected() {
        let _ = Ratio::new(-1, 2);
    }
}
