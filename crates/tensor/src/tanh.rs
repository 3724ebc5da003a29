//! The workspace's one `tanh`: fdlibm's `tanhf`/`expm1f` in branch-free,
//! vectorisable form, bit-identical to glibc's `tanhf`.
//!
//! glibc computes `tanhf` with the fdlibm algorithm: an `expm1f` of
//! `±2|x|` (argument reduction by `ln 2`, a Q1–Q5 rational correction,
//! rescaling by `2^k`) and one division. This module performs the same
//! IEEE operations in the same order on every lane, so each lane rounds
//! exactly as the scalar C code does. Nothing is fused (`mul_add` would
//! round once where fdlibm rounds twice), and there are no branches:
//! every path `tanhf` can reach is computed and the lane's own result is
//! selected, which lets LLVM run a [`LANE_WIDTH`]-lane group as one
//! vector per operation.

use crate::LANE_WIDTH;

const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// Replaces every element of `xs` by its hyperbolic tangent, with the
/// bits of `f32::tanh` on glibc (fdlibm's `tanhf`) for every input.
///
/// Whole [`LANE_WIDTH`]-lane groups are computed as vectors. A tail
/// shorter than a group is copied into a zero-filled group and back, so
/// it is vectorised too and nothing past `xs` is read or written: run
/// one lane at a time, the same code is slower than the libm call.
///
/// # Example
///
/// ```
/// let mut row = [0.0f32, 0.5, -3.0];
/// muffin_tensor::tanh_in_place(&mut row);
/// assert_eq!(row, [0.0, 0.462_117_17, -0.995_054_8]);
/// ```
pub fn tanh_in_place(xs: &mut [f32]) {
    let mut groups = xs.chunks_exact_mut(LANE_WIDTH);
    for group in &mut groups {
        tanh_group(group.try_into().expect("chunks_exact yields whole groups"));
    }
    let tail = groups.into_remainder();
    if !tail.is_empty() {
        // Lane by lane over the whole group, so that no copy length
        // depends on the tail's (a `memcpy` call would cost more than the
        // group).
        let mut group = [0.0; LANE_WIDTH];
        for (i, lane) in group.iter_mut().enumerate() {
            if let Some(&x) = tail.get(i) {
                *lane = x;
            }
        }
        tanh_group(&mut group);
        for (i, &y) in group.iter().enumerate() {
            if let Some(out) = tail.get_mut(i) {
                *out = y;
            }
        }
    }
}

#[inline(always)]
fn tanh_group(group: &mut [f32; LANE_WIDTH]) {
    for x in group.iter_mut() {
        *x = tanh_lane(*x);
    }
}

/// fdlibm `tanhf`, every branch evaluated and the lane's own selected.
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let sign = x.to_bits() & 0x8000_0000;
    // 2^-55 <= |x| < 22: tanh(|x|) from t = expm1(2|x|) when |x| >= 1,
    // else from t = expm1(-2|x|). One division serves both, as the
    // numerator is chosen before dividing.
    let at_least_one = ix >= 0x3f80_0000;
    let two_ax = 2.0 * f32::from_bits(ix);
    let t = expm1_lane(if at_least_one { two_ax } else { -two_ax });
    let q = if at_least_one { 2.0 } else { -t } / (t + 2.0);
    let z = if at_least_one { 1.0 - q } else { q };
    // |x| >= 22, ±inf included: 1 - 1e-30, which rounds to 1.
    let z = if ix >= 0x41b0_0000 { 1.0 } else { z };
    let z = f32::from_bits(z.to_bits() ^ sign);
    // |x| < 2^-55, ±0 included: x * (1 + x), which is x.
    let z = if ix < 0x2400_0000 { x } else { z };
    // NaN: fdlibm's 1/x ± 1 propagates x's payload, quieted, as x + x does.
    if ix > 0x7f80_0000 {
        x + x
    } else {
        z
    }
}

/// fdlibm `expm1f` on the arguments `tanhf` passes it, `u = 2|x|` in
/// `[2, 44)` or `u = -2|x|` in `(-2, -2^-54]`. Its overflow, `-1` and
/// `k = 1` paths are unreachable there and left out; so is `k = 128`.
/// Lanes outside that domain (those of a NaN, an infinity or a tiny
/// `x`) compute values [`tanh_lane`] never selects, with wrapping integer
/// arithmetic so that no such lane can panic.
#[inline(always)]
fn expm1_lane(u: f32) -> f32 {
    let hu = u.to_bits() & 0x7fff_ffff;
    // Argument reduction, u = hi - lo + k ln2 with hi = u - k ln2_hi and
    // lo = k ln2_lo: k = 0 up to |u| = ln2 / 2, -1 below 1.5 ln2 (only a
    // negative u gets there), else u / ln2 rounded half away from zero.
    // k = 0 makes hi = u, lo = 0 and c = 0 exactly, and k = -1 makes
    // hi = u + ln2_hi and lo = -ln2_lo, as fdlibm's own branches do.
    let half = f32::from_bits(0x3f00_0000 | (u.to_bits() & 0x8000_0000));
    let rounded = (INV_LN2 * u + half).trunc();
    let t = if hu <= 0x3eb1_7218 {
        0.0
    } else if hu < 0x3f85_1592 {
        -1.0
    } else {
        rounded
    };
    // The integer k of `t`: adding 1.5 * 2^23 is exact and leaves k in the
    // low mantissa bits. (`as i32` saturates, which does not vectorise.)
    let k = (t + 12_582_912.0).to_bits().wrapping_sub(0x4b40_0000) as i32;
    let hi = u - t * LN2_HI;
    let lo = t * LN2_LO;
    let x = hi - lo;
    let c = (hi - x) - lo;
    // The rational correction on the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    let y_k0 = x - (x * e - hxs);
    let e = x * (e - c) - c - hxs;
    let y_km1 = 0.5 * (x - e) - 0.5;
    // k <= -2 or k > 56, 2 <= k < 23 and 23 <= k <= 56 each form a value
    // and scale it by 2^k, adding k to its exponent field; the first
    // subtracts 1 after.
    let wide = k <= -2 || k > 56;
    let t_low = f32::from_bits(0x3f80_0000u32.wrapping_sub(0x0100_0000u32.wrapping_shr(k as u32)));
    let t_high = f32::from_bits(0x7f_u32.wrapping_sub(k as u32).wrapping_shl(23));
    let unscaled = if wide {
        1.0 - (e - x)
    } else if k < 23 {
        t_low - (e - x)
    } else {
        x - (e + t_high) + 1.0
    };
    let y = f32::from_bits(unscaled.to_bits().wrapping_add((k as u32).wrapping_shl(23)));
    let y = if wide { y - 1.0 } else { y };
    let y = match k {
        0 => y_k0,
        -1 => y_km1,
        _ => y,
    };
    // |u| < 2^-25: u itself.
    if hu < 0x3300_0000 {
        u
    } else {
        y
    }
}
