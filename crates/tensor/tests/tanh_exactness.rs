//! `tanh_in_place` against `f32::tanh`, bit for bit.
//!
//! `f32::tanh` calls the C library's `tanhf`; glibc's is fdlibm's, which
//! the kernel runs lane by lane. A NaN output equals any other NaN,
//! whatever its payload.
//!
//! The tier-1 test covers every 997th bit pattern and each branch
//! threshold of `tanhf` and of the `expm1f` it calls, with neighbours on
//! either side. The two ignored tests cover all 2^32 bit patterns, one
//! sign half each, so libtest runs them on two threads; run them in
//! release:
//!
//! ```text
//! cargo test --release --offline -p muffin-tensor --test tanh_exactness -- --ignored
//! ```
//!
//! Each of the three checks a digest of the kernel's outputs against the
//! value committed here, taken from glibc 2.36's `tanhf`, and compares
//! the kernel with `f32::tanh` input by input where the host's
//! `f32::tanh` gives that digest too. That pins the kernel on any host:
//! where `f32::tanh` is another `tanhf` (its digest differs), the digest
//! alone decides.

use muffin_tensor::tanh_in_place;

fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// The kernel on a one-element slice.
fn tanh_one(x: f32) -> f32 {
    let mut v = [x];
    tanh_in_place(&mut v);
    v[0]
}

/// Runs the kernel over `inputs`, cut into slices of every length from 1
/// to 17 in turn so that whole groups and every tail length are used.
fn kernel_outputs(inputs: &[f32]) -> Vec<f32> {
    let mut out = inputs.to_vec();
    let mut rest = out.as_mut_slice();
    for len in (1..=17).cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at_mut(len.min(rest.len()));
        tanh_in_place(head);
        rest = tail;
    }
    out
}

/// A multiply-rotate hash of the outputs' bit patterns in order, with
/// every NaN counted as the one quiet NaN `0x7fc00000`.
#[derive(Default)]
struct Digest(u64);

impl Digest {
    fn push(&mut self, y: f32) {
        let bits = if y.is_nan() { 0x7fc0_0000 } else { y.to_bits() };
        self.0 = (self.0 ^ u64::from(bits))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(31);
    }
}

/// The kernel's outputs against `f32::tanh`'s, input by input, with a
/// digest of each side.
#[derive(Default)]
struct Comparison {
    kernel: Digest,
    libm: Digest,
    inputs: u64,
    mismatches: u64,
    /// The first few inputs that differ, described.
    first: Vec<String>,
}

impl Comparison {
    /// Adds `inputs`, with the kernel's `outputs` for them.
    fn push(&mut self, inputs: &[f32], outputs: &[f32]) {
        for (&x, &y) in inputs.iter().zip(outputs) {
            let want = x.tanh();
            self.kernel.push(y);
            self.libm.push(want);
            self.inputs += 1;
            if !same(y, want) {
                self.mismatches += 1;
                if self.first.len() < 8 {
                    self.first.push(format!(
                        "{:#010x}: kernel {y:e}, f32::tanh {want:e}",
                        x.to_bits()
                    ));
                }
            }
        }
    }

    /// Asserts that the kernel's digest is `expected` and, where the
    /// host's `f32::tanh` gives `expected` too (it is the reference
    /// `tanhf`), that no input differs, naming the first that do.
    fn check(&self, expected: u64, what: &str) {
        eprintln!(
            "{what}: kernel digest {:#018x}, f32::tanh digest {:#018x}, \
             {} of {} inputs differ",
            self.kernel.0, self.libm.0, self.mismatches, self.inputs
        );
        if self.libm.0 == expected {
            assert_eq!(
                self.mismatches, 0,
                "{what}: the kernel differs from f32::tanh, first: {:?}",
                self.first
            );
        }
        assert_eq!(
            self.kernel.0, expected,
            "{what}: the kernel's outputs changed"
        );
    }
}

/// `|x|` bit patterns at which `tanhf` or `expm1f` (on `±2|x|`) changes
/// branch, each with `radius` neighbours on either side.
fn thresholds() -> Vec<u32> {
    let half = |u: u32| u - 0x0080_0000; // |x| = |u| / 2
    let exact = [
        0,                 // ±0
        1,                 // smallest subnormal
        0x0080_0000,       // smallest normal
        0x2400_0000,       // 2^-55: x * (1 + x) below
        half(0x3300_0000), // |u| = 2^-25: expm1 returns u below
        half(0x3eb1_7218), // |u| = ln2 / 2: argument reduction starts
        half(0x3f85_1592), // |u| = 1.5 ln2: k = ±1 below
        0x3f80_0000,       // 1: expm1(2|x|) from here on
        half(0x4195_b844), // |u| = 27 ln2: expm1's large-argument filter
        0x41b0_0000,       // 22: ±1 from here on
        0x7f7f_ffff,       // largest finite
        0x7f80_0000,       // ∞
        0x7f80_0001,       // smallest NaN payload
        0x7fc0_0000,       // quiet NaN
        0x7fff_ffff,       // largest NaN payload
    ];
    // k = trunc(u / ln2 ± 0.5) steps to 3, 23 and 57 near these |x|; the
    // wider radius covers the rounding of `u / ln2`.
    let k_steps = [2.5f32, 22.5, 56.5].map(|k| (k * std::f32::consts::LN_2 / 2.0).to_bits());
    let around = |b: u32, radius: u32| b.saturating_sub(radius)..=(b + radius).min(0x7fff_ffff);
    let mut bits: Vec<u32> = exact.iter().flat_map(|&b| around(b, 2)).collect();
    bits.extend(k_steps.iter().flat_map(|&b| around(b, 256)));
    bits
}

/// Every 997th bit pattern, then each of `thresholds()` with either sign.
fn sample() -> Vec<f32> {
    let mut inputs: Vec<f32> = (0..=u32::MAX).step_by(997).map(f32::from_bits).collect();
    for b in thresholds() {
        inputs.extend([f32::from_bits(b), f32::from_bits(b | 0x8000_0000)]);
    }
    inputs
}

/// Digest of the kernel's outputs over `sample()`, in its order; f32::tanh
/// on glibc 2.36 gives the same. A change to the sample changes it.
const SAMPLE_DIGEST: u64 = 0xa14b_c4ac_4986_3fcf;

#[test]
fn kernel_equals_libm_on_every_997th_pattern_and_each_branch_threshold() {
    let inputs = sample();
    let mut comparison = Comparison::default();
    comparison.push(&inputs, &kernel_outputs(&inputs));
    comparison.check(SAMPLE_DIGEST, "tier-1 sample");
}

#[test]
fn kernel_reads_and_writes_nothing_past_its_slice() {
    let mut buf = [f32::NAN; 24];
    for (i, v) in buf[4..17].iter_mut().enumerate() {
        *v = i as f32 * 0.37 - 2.0;
    }
    let before = buf;
    tanh_in_place(&mut buf[4..17]);
    for (i, (&got, &x)) in buf.iter().zip(&before).enumerate() {
        if (4..17).contains(&i) {
            assert_eq!(got.to_bits(), tanh_one(x).to_bits(), "element {i}");
        } else {
            assert_eq!(got.to_bits(), x.to_bits(), "element {i} outside the slice");
        }
    }
}

/// Digests of the kernel's outputs over the non-negative and the negative
/// half of the bit patterns, in increasing bit order; f32::tanh on glibc
/// 2.36 gives the same.
const POSITIVE_HALF_DIGEST: u64 = 0x1a40_2c70_9ed1_5c62;
const NEGATIVE_HALF_DIGEST: u64 = 0x6e14_2621_7772_baa1;

fn check_sign_half(sign: u32, expected: u64) {
    const BLOCK: u32 = 1 << 16;
    let mut inputs = vec![0.0f32; BLOCK as usize];
    let mut outputs = inputs.clone();
    let mut comparison = Comparison::default();
    for block in 0..(1u32 << 31) / BLOCK {
        for (i, x) in (0..).zip(inputs.iter_mut()) {
            *x = f32::from_bits(sign | (block * BLOCK) | i);
        }
        outputs.copy_from_slice(&inputs);
        tanh_in_place(&mut outputs);
        comparison.push(&inputs, &outputs);
    }
    comparison.check(expected, &format!("sign {sign:#x}"));
}

#[test]
#[ignore = "2^31 inputs; run in release with --ignored"]
fn kernel_equals_libm_on_every_non_negative_pattern() {
    check_sign_half(0, POSITIVE_HALF_DIGEST);
}

#[test]
#[ignore = "2^31 inputs; run in release with --ignored"]
fn kernel_equals_libm_on_every_negative_pattern() {
    check_sign_half(0x8000_0000, NEGATIVE_HALF_DIGEST);
}
