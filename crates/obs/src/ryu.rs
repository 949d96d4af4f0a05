//! Shortest round-trip `f64` formatting: Ryu (Ulf Adams, "Ryū: fast
//! float-to-string conversion", PLDI 2018), writing exactly what
//! `format!("{v:?}")` writes.
//!
//! Ryu finds the shortest decimal `d × 10^e` inside the interval of
//! reals that round to `v`, picking the one closest to `v`, with 128-bit
//! multiplications by powers of 5. Those powers live in two tables that
//! are computed at compile time from exact big-integer arithmetic
//! ([`pow5_table`], [`pow5_inv_table`]), not pasted. On an exact tie
//! between two shortest candidates this rounds half up, as std does
//! (`1125899906842624.25` prints `…624.3`), where the reference Ryu
//! rounds half to even. The digits are then laid out as std's `Debug`
//! does: plain decimal with at least one fractional digit when
//! `1e-4 <= |v| < 1e16`, otherwise `d.ddde±x`.

const MANTISSA_BITS: u32 = 52;
const EXPONENT_MASK: u64 = 0x7ff;
const BIAS: i32 = 1023;
/// Bits kept of each power of five and of each inverse power.
const POW5_BITCOUNT: i32 = 125;
const POW5_INV_BITCOUNT: i32 = 125;
/// Table sizes cover every `q` and `-e2 - q` the two branches of
/// [`shortest`] index with, subnormals included.
const POW5_TABLE_SIZE: usize = 326;
const POW5_INV_TABLE_SIZE: usize = 342;

/// `5^i`, scaled to exactly [`POW5_BITCOUNT`] bits (truncated).
static POW5_SPLIT: [u128; POW5_TABLE_SIZE] = pow5_table();
/// `floor(2^(bitlen(5^i) - 1 + POW5_INV_BITCOUNT) / 5^i) + 1`.
static POW5_INV_SPLIT: [u128; POW5_INV_TABLE_SIZE] = pow5_inv_table();

/// Little-endian 64-bit limbs: enough for `2^1024`, the numerator the
/// inverse table divides down from (its largest exponent is ~917).
const LIMBS: usize = 17;
/// `X_i = floor(2^BIG_EXP / 5^i)`: each inverse entry is `X_i` shifted
/// right, since `floor(floor(a / b) / c) = floor(a / (b c))`.
const BIG_EXP: usize = 1024;

type Big = [u64; LIMBS];

const fn big_mul_small(mut a: Big, m: u64) -> Big {
    let mut carry = 0u128;
    let mut k = 0;
    while k < LIMBS {
        let t = a[k] as u128 * m as u128 + carry;
        a[k] = t as u64;
        carry = t >> 64;
        k += 1;
    }
    a
}

const fn big_div_small(mut a: Big, d: u64) -> Big {
    let mut rem = 0u128;
    let mut k = LIMBS;
    while k > 0 {
        k -= 1;
        let cur = (rem << 64) | a[k] as u128;
        a[k] = (cur / d as u128) as u64;
        rem = cur % d as u128;
    }
    a
}

const fn big_bit_len(a: &Big) -> usize {
    let mut k = LIMBS;
    while k > 0 {
        k -= 1;
        if a[k] != 0 {
            return 64 * k + 64 - a[k].leading_zeros() as usize;
        }
    }
    0
}

/// The low 128 bits of `floor(a / 2^s)`.
const fn big_shr_low128(a: &Big, s: usize) -> u128 {
    let (word, bit) = (s / 64, (s % 64) as i32);
    let mut out = 0u128;
    let mut k = 0;
    while k < 3 && word + k < LIMBS {
        let limb = a[word + k] as u128;
        let at = 64 * k as i32 - bit;
        if at < 0 {
            out |= limb >> -at;
        } else if at < 128 {
            out |= limb << at;
        }
        k += 1;
    }
    out
}

const fn pow5_table() -> [u128; POW5_TABLE_SIZE] {
    let mut table = [0u128; POW5_TABLE_SIZE];
    let mut pow: Big = [0; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < POW5_TABLE_SIZE {
        let len = big_bit_len(&pow);
        let bits = POW5_BITCOUNT as usize;
        table[i] = if len <= bits {
            big_shr_low128(&pow, 0) << (bits - len)
        } else {
            big_shr_low128(&pow, len - bits)
        };
        pow = big_mul_small(pow, 5);
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u128; POW5_INV_TABLE_SIZE] {
    let mut table = [0u128; POW5_INV_TABLE_SIZE];
    let mut pow: Big = [0; LIMBS];
    pow[0] = 1;
    let mut quotient: Big = [0; LIMBS];
    quotient[BIG_EXP / 64] = 1;
    let mut i = 0;
    while i < POW5_INV_TABLE_SIZE {
        let j = big_bit_len(&pow) - 1 + POW5_INV_BITCOUNT as usize;
        table[i] = big_shr_low128(&quotient, BIG_EXP - j) + 1;
        pow = big_mul_small(pow, 5);
        quotient = big_div_small(quotient, 5);
        i += 1;
    }
    table
}

/// `bitlen(5^e)` (1 for `e = 0`), for `0 <= e <= 3528`.
fn pow5bits(e: i32) -> i32 {
    (((e as u32) * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))`, for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    ((e as u32) * 78_913) >> 18
}

/// `floor(log10(5^e))`, for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    ((e as u32) * 732_923) >> 20
}

fn pow5_factor(mut value: u64) -> u32 {
    let mut count = 0;
    while value > 0 && value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count
}

fn multiple_of_power_of_5(value: u64, p: u32) -> bool {
    pow5_factor(value) >= p
}

/// `floor(m * mul / 2^j)` for a 125-bit `mul` and `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = m as u128 * (mul as u64) as u128;
    let high = m as u128 * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest `(digits, exponent)` with `digits × 10^exponent`
/// rounding to the finite, nonzero value with these IEEE fields.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1u64 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-half-even on the binary side: the interval's bounds belong
    // to it when the mantissa is even.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The lower gap is half as wide at a power of two.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    let (mut vr, mut vp, mut vm, e10);
    // Whether the digits the loops below remove from the lower bound are
    // all zero, so that it is itself a candidate. (Reference Ryu also
    // tracks this for `vr`, only to round exact ties to even; ties here
    // round up, so that bookkeeping is not needed.)
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let j = (-e2 + q as i32 + k) as u32;
        let mul = POW5_INV_SPLIT.get(q as usize).copied().unwrap_or_default();
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // At most one of mp, mv and mm is a multiple of 5; only a bound
        // that is one matters.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let j = (q as i32 - k) as u32;
        let mul = POW5_SPLIT.get(i as usize).copied().unwrap_or_default();
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            if accept_bounds {
                // mm = mv - 1 - mm_shift has a trailing zero bit iff
                // mm_shift is 1.
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                // mp = mv + 2 always has one.
                vp -= 1;
            }
        }
    }

    // Remove digits while the interval still holds a shorter candidate;
    // `round_up` says whether the last digit removed from `vr` was 5 or
    // more. An exact tie (`…5000`) rounds up, as std does.
    let mut removed = 0i32;
    let mut round_up = false;
    if !vm_is_trailing_zeros && vp / 100 > vm / 100 {
        // The common case removes two digits at a time first.
        round_up = vr % 100 >= 50;
        vr /= 100;
        vp /= 100;
        vm /= 100;
        removed += 2;
    }
    while vp / 10 > vm / 10 {
        vm_is_trailing_zeros &= vm % 10 == 0;
        round_up = vr % 10 >= 5;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    if vm_is_trailing_zeros {
        // The lower bound is a candidate: keep removing its zeros.
        while vm % 10 == 0 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    // Take `vr + 1` when `vr` fell out of the interval or rounds up.
    let output =
        vr + u64::from((vr == vm && (!accept_bounds || !vm_is_trailing_zeros)) || round_up);
    (output, e10 + removed)
}

// The code below runs on the serving path (`/stats` and error bodies
// are JSON), whose contract is no reachable panic, bounds checks
// included: it reads and writes its buffers through `get`, whose `None`
// cannot occur for the sizes shown.

/// `"00" "01" … "99"`: the two digits of each number below 100.
static DIGIT_PAIRS: [[u8; 2]; 100] = {
    let mut pairs = [[0u8; 2]; 100];
    let mut i = 0;
    while i < 100 {
        pairs[i] = [b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
        i += 1;
    }
    pairs
};

/// How many decimal digits `n` has (1 for 0). Shortest mantissas
/// mostly have 15–17, so the search starts from the top.
fn decimal_len(n: u64) -> usize {
    let mut len = 20;
    let mut bound = 10_000_000_000_000_000_000u64;
    while len > 1 && n < bound {
        len -= 1;
        bound /= 10;
    }
    len
}

/// Write the `out.len()` low decimal digits of `n` into `out`, two at
/// a time from the end.
fn write_digits(out: &mut [u8], mut n: u64) {
    for chunk in out.rchunks_mut(2) {
        let [hi, lo] = DIGIT_PAIRS
            .get((n % 100) as usize)
            .copied()
            .unwrap_or_default();
        n /= 100;
        match chunk {
            [a, b] => (*a, *b) = (hi, lo),
            [b] => *b = lo,
            _ => {}
        }
    }
}

/// A number's text, built on the stack and appended to the output in
/// one step. The layouts below copy fixed 20-byte windows, so the
/// buffer has room past the longest text (24 bytes).
struct Text {
    bytes: [u8; 48],
    len: usize,
}

impl Text {
    fn new() -> Text {
        Text {
            bytes: [0; 48],
            len: 0,
        }
    }

    /// Write `bytes` at `at`, leaving the length alone.
    fn put(&mut self, at: usize, bytes: &[u8]) {
        if let Some(dst) = self.bytes.get_mut(at..at + bytes.len()) {
            dst.copy_from_slice(bytes);
        }
    }

    fn push(&mut self, bytes: &[u8]) {
        self.put(self.len, bytes);
        self.len += bytes.len();
    }

    fn digits(&mut self, n: u64) {
        let end = self.len + decimal_len(n);
        if let Some(dst) = self.bytes.get_mut(self.len..end) {
            write_digits(dst, n);
        }
        self.len = end;
    }

    fn append_to(&self, out: &mut String) {
        // Only ASCII digits, signs, `.` and `e` are ever written.
        let text = self
            .bytes
            .get(..self.len)
            .and_then(|b| std::str::from_utf8(b).ok());
        out.push_str(text.unwrap_or_default());
    }
}

/// Append an unsigned integer in decimal.
pub(crate) fn write_u64(out: &mut String, n: u64) {
    let mut text = Text::new();
    text.digits(n);
    text.append_to(out);
}

/// Append exactly what `format!("{v:?}")` writes for any `f64`.
pub(crate) fn write_f64(out: &mut String, v: f64) {
    let bits = v.to_bits();
    let ieee_mantissa = bits & ((1u64 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & EXPONENT_MASK) as u32;
    if ieee_exponent == EXPONENT_MASK as u32 {
        out.push_str(match (ieee_mantissa != 0, v.is_sign_negative()) {
            (true, _) => "NaN",
            (false, false) => "inf",
            (false, true) => "-inf",
        });
        return;
    }
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.push_str(if v.is_sign_negative() { "-0.0" } else { "0.0" });
        return;
    }
    let mut text = Text::new();
    if v.is_sign_negative() {
        text.push(b"-");
    }
    let (mantissa, exponent) = shortest(ieee_mantissa, ieee_exponent);
    // The digits, left-aligned and padded with zeros to 40 bytes so
    // that every layout copies whole 20-byte windows of them.
    let len = decimal_len(mantissa);
    let mut digits = [b'0'; 40];
    if let Some(head) = digits.get_mut(..len) {
        write_digits(head, mantissa);
    }
    let window = |from: usize| digits.get(from..from + 20).unwrap_or_default();
    let s = text.len;
    let point = exponent + len as i32;
    if !(1e-4..1e16).contains(&v.abs()) {
        // `d.ddd`, then `e` and the exponent of the leading digit.
        let [first, ..] = digits;
        text.put(s, &[first, b'.']);
        text.put(s + 2, window(1));
        text.len = s + if len > 1 { len + 1 } else { 1 };
        text.push(b"e");
        let sci = point - 1;
        if sci < 0 {
            text.push(b"-");
        }
        text.digits(u64::from(sci.unsigned_abs()));
    } else if point <= 0 {
        // `0.`, then up to three zeros (|v| >= 1e-4), then the digits.
        let zeros = point.unsigned_abs() as usize;
        text.put(s, b"0.000");
        text.put(s + 2 + zeros, window(0));
        text.len = s + 2 + zeros + len;
    } else {
        // `point` (at most 16) digits before the point. Past the last
        // digit the padding supplies the zeros of an integral value.
        let p = point as usize;
        text.put(s, window(0));
        text.put(s + p, b".");
        if p < len {
            text.put(s + p + 1, window(p));
            text.len = s + len + 1;
        } else {
            text.put(s + p + 1, b"0");
            text.len = s + p + 2;
        }
    }
    text.append_to(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ryu(v: f64) -> String {
        let mut s = String::new();
        write_f64(&mut s, v);
        s
    }

    fn check(v: f64) {
        let want = format!("{v:?}");
        let got = ryu(v);
        assert_eq!(got, want, "bits {:#018x}", v.to_bits());
        if v.is_finite() {
            let back: f64 = got.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{got} does not round-trip");
        }
    }

    /// SplitMix64: a fixed stream of well-mixed 64-bit patterns.
    fn patterns(seed: u64, n: usize) -> impl Iterator<Item = u64> {
        let mut state = seed;
        (0..n).map(move |_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
    }

    #[test]
    fn tables_match_the_bit_length_formula() {
        // The shift amounts use `pow5bits`, so it must agree with the
        // exact bit length the tables were scaled by.
        let mut pow: Big = [0; LIMBS];
        pow[0] = 1;
        for i in 0..POW5_INV_TABLE_SIZE {
            assert_eq!(big_bit_len(&pow) as i32, pow5bits(i as i32), "5^{i}");
            pow = big_mul_small(pow, 5);
        }
        // Spot values from the published Ryu tables.
        assert_eq!(POW5_SPLIT[0], 1u128 << 124);
        assert_eq!(POW5_INV_SPLIT[0], (1u128 << 125) + 1);
        assert_eq!(POW5_SPLIT[1], 5u128 << 122);
        for (i, &e) in POW5_SPLIT.iter().enumerate() {
            assert_eq!(128 - e.leading_zeros(), 125, "5^{i} is not 125 bits");
        }
        for (i, &e) in POW5_INV_SPLIT.iter().enumerate() {
            assert!(e > 1 << 124 && e <= (1 << 125) + 1, "5^-{i} out of range");
        }
    }

    #[test]
    fn equals_std_debug_on_a_million_random_bit_patterns() {
        for bits in patterns(0x5eed, 1_000_000) {
            check(f64::from_bits(bits));
        }
    }

    #[test]
    fn equals_std_debug_on_edge_values() {
        let mut values = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            5e-324,
            -5e-324,
            f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.1,
            1.0 / 3.0,
            // Exact ties between two shortest candidates round up:
            // 2^50 + 0.25 prints as `…624.3`.
            (1u64 << 50) as f64 + 0.25,
            (1u64 << 50) as f64 + 0.75,
            (1u64 << 51) as f64 + 0.5,
        ];
        // Every power of two and of ten across the exponent range, and
        // the neighbours of each.
        for e in -1074..=1023 {
            values.push(2f64.powi(e));
        }
        for e in -323..=308 {
            values.push(format!("1e{e}").parse().unwrap());
        }
        // The decimal/exponential switch points at 1e-4 and 1e16, and
        // the JSON writer's integer cut-off at 1e15.
        values.extend([1e-4, 1e15, 1e16, 9.999_999_999_999_999e-5, 1e16 - 2.0]);
        for v in values.clone() {
            for bits in [v.to_bits().wrapping_sub(1), v.to_bits(), v.to_bits() + 1] {
                for x in [f64::from_bits(bits), -f64::from_bits(bits)] {
                    check(x);
                }
            }
        }
        // Subnormals, and quarters of large integers, where exact ties
        // between shortest candidates happen.
        for bits in patterns(7, 20_000) {
            check(f64::from_bits(bits & 0x800f_ffff_ffff_ffff));
            check((1u64 << 50) as f64 + (bits >> 14) as f64 / 4.0);
        }
        for n in [0u64, 1, 9, 10, 99, 1_000_000, u64::MAX] {
            let mut s = String::new();
            write_u64(&mut s, n);
            assert_eq!(s, n.to_string());
        }
    }

    /// `cargo test --release -p lsi-obs -- --ignored`: 10^8 patterns.
    #[test]
    #[ignore]
    fn equals_std_debug_on_a_hundred_million_random_bit_patterns() {
        for bits in patterns(0xdead_beef, 100_000_000) {
            check(f64::from_bits(bits));
        }
    }
}
