//! Hilbert index <-> axis coordinates, plus a float-point mapper.
//!
//! Cell → key is a table walk, and `State::step` is the one definition
//! its tables are derived from. Skilling's whole-word transform specifies
//! the curve: it is the inverse ([`hilbert_coords`]) and, under
//! `#[cfg(test)]`, the oracle the walk is compared against.

use geographer_geometry::{Aabb, Point};

/// Maximum bits per axis such that `D * bits` fits into the `u64` key.
pub const fn max_bits(d: usize) -> u32 {
    (64 / d) as u32
}

/// What Skilling's AxesToTranspose has done to the bits *below* the level
/// it is working on: word `i` holds input axis `perm[i]`, complemented if
/// `flip[i]`; `t` is the parity his closing loop has accumulated from the
/// levels above. Of the `2·2^D·D!` combinations, `2^D·D!` are reachable
/// from [`State::START`] — 8 in 2D, 48 in 3D ([`tables`] checks the count).
#[derive(Clone, Copy)]
struct State<const D: usize> {
    perm: [u8; D],
    flip: [bool; D],
    t: bool,
}

impl<const D: usize> State<D> {
    /// Above the most significant level: nothing permuted, nothing flipped.
    const START: Self = {
        let mut perm = [0; D];
        let mut i = 0;
        while i < D {
            perm[i] = i as u8;
            i += 1;
        }
        State { perm, flip: [false; D], t: false }
    };

    /// One level of the transform. `b` holds the level's input bits, axis 0
    /// most significant; returns the level's key digit (same layout) and
    /// the state for the level below.
    ///
    /// Skilling's level loop reads bit `q` of each word and rewrites only
    /// the bits below `q`, so what it reads is `cur`, fixed for the level: a
    /// set bit complements the rest of word 0, a clear one swaps the rest
    /// of words 0 and `i`. His Gray encode is a prefix xor across the words
    /// and his closing loop xors in the parity of the last word's higher
    /// bits — `acc` carries both.
    const fn step(mut self, b: usize) -> (u16, Self) {
        let mut cur = [false; D];
        let mut i = 0;
        while i < D {
            cur[i] = ((b >> (D - 1 - self.perm[i] as usize)) & 1 != 0) ^ self.flip[i];
            i += 1;
        }
        let mut digit = 0;
        let mut acc = self.t;
        i = 0;
        while i < D {
            acc ^= cur[i];
            digit = digit << 1 | acc as u16;
            if cur[i] {
                self.flip[0] ^= true;
            } else {
                self.perm.swap(0, i);
                self.flip.swap(0, i);
            }
            i += 1;
        }
        self.t = acc;
        (digit, self)
    }

    /// The state as one integer, to compare states while enumerating them.
    const fn code(&self) -> usize {
        let mut c = self.t as usize;
        let mut i = 0;
        while i < D {
            c = c << 3 | (self.perm[i] as usize) << 1 | self.flip[i] as usize;
            i += 1;
        }
        c
    }
}

/// [`State::step`] tabulated over state ids (breadth-first from
/// [`State::START`], which is id 0). An entry is `key digits << 8 | next
/// state id`; `ONE` and `MANY` are the flat lengths `states · 2^D` and
/// `states · 2^(D·s)`.
struct Tables<const ONE: usize, const MANY: usize> {
    /// Levels per lookup in `many`.
    s: usize,
    /// `[state][D input bits]`: one level.
    one: [u16; ONE],
    /// `[state][axis 0's s bits ‖ … ‖ axis D−1's s bits]`: `s` levels, each
    /// axis's bits kept together so the walk indexes with plain shifts.
    many: [u16; MANY],
}

const fn tables<const D: usize, const ONE: usize, const MANY: usize>(
    s: usize,
) -> Tables<ONE, MANY> {
    // Enumerate the reachable states, filling the one-level table. A state
    // beyond the `ONE >> D` the caller sized for indexes out of bounds,
    // which fails the build.
    let mut states = [State::<D>::START; ONE];
    let mut n = 1;
    let mut one = [0u16; ONE];
    let mut at = 0;
    while at < n {
        let mut b = 0;
        while b < 1 << D {
            let (digit, next) = states[at].step(b);
            let mut id = 0;
            while id < n && states[id].code() != next.code() {
                id += 1;
            }
            if id == n {
                states[n] = next;
                n += 1;
            }
            one[at << D | b] = digit << 8 | id as u16;
            b += 1;
        }
        at += 1;
    }
    assert!(n << D == ONE && n << (D * s) == MANY && n <= 256 && D * s <= 8);

    // `s` levels per lookup, composed from the one-level table.
    let mut many = [0u16; MANY];
    let mut start = 0;
    while start < n {
        let mut input = 0;
        while input < 1 << (D * s) {
            let (mut state, mut digits) = (start, 0);
            let mut level = s;
            while level > 0 {
                level -= 1;
                let mut b = 0;
                let mut i = 0;
                while i < D {
                    b = b << 1 | (input >> ((D - 1 - i) * s + level)) & 1;
                    i += 1;
                }
                let e = one[state << D | b];
                digits = digits << D | e >> 8;
                state = (e & 0xff) as usize;
            }
            many[start << (D * s) | input] = digits << 8 | state as u16;
            input += 1;
        }
        start += 1;
    }
    Tables { s, one, many }
}

/// 2D: 8 states, 4 levels per lookup — 8 × 256 entries, 4 KiB.
static WALK_2D: Tables<{ 8 << 2 }, { 8 << 8 }> = tables::<2, _, _>(4);
/// 3D: 48 states, 2 levels per lookup — 48 × 64 entries, 6 KiB.
static WALK_3D: Tables<{ 48 << 3 }, { 48 << 6 }> = tables::<3, _, _>(2);

/// The tables of one dimension, as the walk reads them. Plain statics built
/// at compile time: a forked worker must not meet a lock on its way to a
/// key (DESIGN.md §10), which rules out lazy initialization.
struct Walk {
    s: u32,
    one: &'static [u16],
    many: &'static [u16],
}

impl<const ONE: usize, const MANY: usize> Tables<ONE, MANY> {
    const fn walk(&'static self) -> Walk {
        Walk { s: self.s as u32, one: &self.one, many: &self.many }
    }
}

impl Walk {
    /// Evaluated in a `const` block, so an unsupported `D` fails the build
    /// of whatever instantiates it.
    const fn of<const D: usize>() -> Walk {
        match D {
            2 => WALK_2D.walk(),
            3 => WALK_3D.walk(),
            _ => panic!("Hilbert keys are tabulated for 2 and 3 dimensions only"),
        }
    }
}

/// Skilling's TransposeToAxes: the transposed Hilbert representation back
/// to axis coordinates (in place).
fn transpose_to_axes<const D: usize>(x: &mut [u32; D], bits: u32) {
    debug_assert!(bits >= 1);
    let n: u32 = 1 << bits;
    // Gray decode by H ^ (H/2).
    let mut t = x[D - 1] >> 1;
    for i in (1..D).rev() {
        x[i] ^= x[i - 1];
    }
    x[0] ^= t;
    // Undo excess work.
    let mut q: u32 = 2;
    while q != n {
        let p = q.wrapping_sub(1);
        for i in (0..D).rev() {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q <<= 1;
    }
}

/// Split a key into the transposed representation (most significant
/// Hilbert digit first, axis 0 first within a digit).
fn deinterleave<const D: usize>(key: u64, bits: u32) -> [u32; D] {
    let mut x = [0u32; D];
    let total = bits * D as u32;
    for pos in 0..total {
        let bit = (key >> (total - 1 - pos)) & 1;
        let b = bits - 1 - pos / D as u32;
        let i = (pos % D as u32) as usize;
        x[i] |= (bit as u32) << b;
    }
    x
}

/// Hilbert index of the integer lattice cell `coords`, with `bits` of
/// resolution per axis. Each coordinate must be `< 2^bits`.
///
/// # Panics
/// If `bits == 0`, `bits > min(64/D, 31)`, or a coordinate is out of range.
pub fn hilbert_index<const D: usize>(coords: [u32; D], bits: u32) -> u64 {
    assert!(bits >= 1 && bits <= max_bits(D).min(31), "bits out of range");
    for &c in &coords {
        assert!(c < (1 << bits), "coordinate {c} out of range for {bits} bits");
    }
    hilbert_index_unchecked(coords, bits)
}

/// [`hilbert_index`] without the per-call range asserts, for callers that
/// already guarantee them — [`HilbertMapper::key_of`] validates `bits`
/// once at construction and clamps every coordinate in `cell_of`, so the
/// per-point checks would only re-prove invariants in the key-derivation
/// hot loop. Debug builds still verify.
///
/// Walks the levels from the most significant down: the leading
/// `bits % s` one at a time, the rest `s` per lookup — a 16-bit key is 4
/// lookups in 2D and 8 in 3D.
#[inline]
fn hilbert_index_unchecked<const D: usize>(coords: [u32; D], bits: u32) -> u64 {
    debug_assert!(bits >= 1 && bits <= max_bits(D).min(31), "bits out of range");
    debug_assert!(
        coords.iter().all(|&c| c < (1 << bits)),
        "coordinate out of range for {bits} bits"
    );
    let walk = const { Walk::of::<D>() };
    let (mut key, mut state, mut shift) = (0u64, 0usize, bits);
    let mut lookup = |table: &[u16], s: u32| {
        shift -= s;
        let mut at = state;
        for c in coords {
            at = at << s | (c >> shift) as usize & ((1 << s) - 1);
        }
        let e = table[at];
        key = key << (D as u32 * s) | u64::from(e >> 8);
        state = usize::from(e & 0xff);
    };
    // geo-analyze: hot-loop
    for _ in 0..bits % walk.s {
        lookup(walk.one, 1);
    }
    // geo-analyze: hot-loop
    for _ in 0..bits / walk.s {
        lookup(walk.many, walk.s);
    }
    key
}

/// Axis coordinates of the lattice cell with the given Hilbert `index`.
pub fn hilbert_coords<const D: usize>(index: u64, bits: u32) -> [u32; D] {
    assert!(bits >= 1 && bits <= max_bits(D).min(31), "bits out of range");
    let mut x = deinterleave::<D>(index, bits);
    transpose_to_axes(&mut x, bits);
    x
}

/// Maps floating-point points inside a fixed bounding box to Hilbert keys.
///
/// All SPMD ranks must construct the mapper from the *global* bounding box
/// so keys are comparable across ranks.
#[derive(Debug, Clone)]
pub struct HilbertMapper<const D: usize> {
    bb: Aabb<D>,
    bits: u32,
    scale: [f64; D],
}

impl<const D: usize> HilbertMapper<D> {
    /// A mapper over `bb` with `bits` of resolution per axis.
    pub fn new(bb: Aabb<D>, bits: u32) -> Self {
        assert!(bits >= 1 && bits <= max_bits(D).min(31), "bits out of range");
        let cells = (1u64 << bits) as f64;
        let mut scale = [0.0; D];
        for i in 0..D {
            let ext = bb.extent(i);
            // Degenerate extents map everything to cell 0 in that axis.
            scale[i] = if ext > 0.0 { cells / ext } else { 0.0 };
        }
        HilbertMapper { bb, bits, scale }
    }

    /// Resolution in bits per axis.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Quantize a point to its lattice cell (clamped into the box).
    pub fn cell_of(&self, p: &Point<D>) -> [u32; D] {
        let max_cell = (1u32 << self.bits) - 1;
        let mut c = [0u32; D];
        for i in 0..D {
            let raw = (p[i] - self.bb.min[i]) * self.scale[i];
            c[i] = if raw <= 0.0 {
                0
            } else if raw >= max_cell as f64 {
                max_cell
            } else {
                raw as u32
            };
        }
        c
    }

    /// Hilbert key of `p`. One pass: quantize (clamped) and index without
    /// re-checking ranges the mapper already guarantees.
    pub fn key_of(&self, p: &Point<D>) -> u64 {
        hilbert_index_unchecked(self.cell_of(p), self.bits)
    }

    /// Indices of `points` in curve order, points with equal keys in index
    /// order — what a stable sort of `0..n` by [`Self::key_of`] yields, with
    /// every key computed once.
    pub fn order(&self, points: &[Point<D>]) -> Vec<u32> {
        assert!(points.len() <= u32::MAX as usize, "point indices must fit a u32");
        let mut keyed: Vec<(u64, u32)> =
            points.iter().zip(0..).map(|(p, i)| (self.key_of(p), i)).collect();
        // The pairs are distinct, so no stability is needed to order ties.
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, i)| i).collect()
    }

    /// Center of the lattice cell with Hilbert key `key` (inverse of
    /// [`Self::key_of`] up to quantization).
    pub fn point_of(&self, key: u64) -> Point<D> {
        let c = hilbert_coords::<D>(key, self.bits);
        let mut p = [0.0; D];
        for i in 0..D {
            let s = if self.scale[i] > 0.0 { 1.0 / self.scale[i] } else { 0.0 };
            p[i] = self.bb.min[i] + (c[i] as f64 + 0.5) * s;
        }
        Point::new(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Skilling's AxesToTranspose: turn axis coordinates into the
    /// "transposed" Hilbert representation (in place). With
    /// [`interleave`], the whole-word oracle of the table walk.
    fn axes_to_transpose<const D: usize>(x: &mut [u32; D], bits: u32) {
        let m: u32 = 1 << (bits - 1);
        // Inverse undo excess work.
        let mut q = m;
        while q > 1 {
            let p = q - 1;
            for i in 0..D {
                if x[i] & q != 0 {
                    x[0] ^= p;
                } else {
                    let t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q >>= 1;
        }
        // Gray encode.
        for i in 1..D {
            x[i] ^= x[i - 1];
        }
        let mut t = 0;
        let mut q = m;
        while q > 1 {
            if x[D - 1] & q != 0 {
                t ^= q - 1;
            }
            q >>= 1;
        }
        for v in x.iter_mut() {
            *v ^= t;
        }
    }

    /// Interleave the transposed representation into a single `u64` key
    /// (most significant Hilbert digit first). Inverse of [`deinterleave`].
    fn interleave<const D: usize>(x: &[u32; D], bits: u32) -> u64 {
        let mut key: u64 = 0;
        for b in (0..bits).rev() {
            for v in x.iter() {
                key = (key << 1) | ((*v >> b) & 1) as u64;
            }
        }
        key
    }

    fn skilling_index<const D: usize>(mut x: [u32; D], bits: u32) -> u64 {
        axes_to_transpose(&mut x, bits);
        interleave(&x, bits)
    }

    #[test]
    fn first_order_2d_visits_four_cells_contiguously() {
        // A 1-bit 2D Hilbert curve visits the four unit cells in a "U";
        // successive cells must be grid neighbours.
        let mut cells = Vec::new();
        for idx in 0..4 {
            cells.push(hilbert_coords::<2>(idx, 1));
        }
        for w in cells.windows(2) {
            let dx = (w[0][0] as i64 - w[1][0] as i64).abs();
            let dy = (w[0][1] as i64 - w[1][1] as i64).abs();
            assert_eq!(dx + dy, 1, "consecutive cells must be adjacent: {cells:?}");
        }
    }

    #[test]
    fn bijective_2d_small() {
        let bits = 4;
        let n = 1u64 << (2 * bits);
        let mut seen = vec![false; n as usize];
        for x in 0..(1u32 << bits) {
            for y in 0..(1u32 << bits) {
                let idx = hilbert_index([x, y], bits);
                assert_eq!(idx, skilling_index([x, y], bits), "walk ≠ Skilling at {x},{y}");
                assert!(idx < n);
                assert!(!seen[idx as usize], "duplicate index {idx}");
                seen[idx as usize] = true;
                assert_eq!(hilbert_coords::<2>(idx, bits), [x, y]);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bijective_3d_small() {
        let bits = 3;
        let n = 1u64 << (3 * bits);
        let mut seen = vec![false; n as usize];
        for x in 0..(1u32 << bits) {
            for y in 0..(1u32 << bits) {
                for z in 0..(1u32 << bits) {
                    let idx = hilbert_index([x, y, z], bits);
                    assert_eq!(idx, skilling_index([x, y, z], bits), "walk ≠ Skilling");
                    assert!(!seen[idx as usize]);
                    seen[idx as usize] = true;
                    assert_eq!(hilbert_coords::<3>(idx, bits), [x, y, z]);
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn roundtrip_at_max_resolution_2d() {
        // Exhaustive bijectivity is infeasible at 31 bits/axis; sample the
        // lattice deterministically instead, including both extremes — at
        // every resolution, so the walk's leading `bits % 4` single levels
        // are exercised in all their counts.
        let mut rng = geographer_geometry::SplitMix64::new(2026);
        for bits in 1..=max_bits(2).min(31) {
            let max = (1u32 << bits) - 1;
            let mut cells: Vec<[u32; 2]> =
                vec![[0, 0], [max, max], [0, max], [max, 0], [1, max - 1]];
            cells.extend((0..500).map(|_| {
                [rng.next_below(1 << bits) as u32, rng.next_below(1 << bits) as u32]
            }));
            for c in cells {
                let idx = hilbert_index(c, bits);
                assert_eq!(idx, skilling_index(c, bits), "walk ≠ Skilling for {c:?}, {bits} bits");
                assert_eq!(hilbert_coords::<2>(idx, bits), c, "round-trip failed for {c:?}");
            }
        }
    }

    #[test]
    fn roundtrip_at_max_resolution_3d() {
        let mut rng = geographer_geometry::SplitMix64::new(2027);
        for bits in 1..=max_bits(3).min(31) {
            // up to 21 bits/axis
            let max = (1u32 << bits) - 1;
            let mut cells: Vec<[u32; 3]> = vec![[0, 0, 0], [max, max, max], [0, max, 0]];
            cells.extend((0..500).map(|_| {
                [
                    rng.next_below(1 << bits) as u32,
                    rng.next_below(1 << bits) as u32,
                    rng.next_below(1 << bits) as u32,
                ]
            }));
            for c in cells {
                let idx = hilbert_index(c, bits);
                assert_eq!(idx, skilling_index(c, bits), "walk ≠ Skilling for {c:?}, {bits} bits");
                assert_eq!(hilbert_coords::<3>(idx, bits), c, "round-trip failed for {c:?}");
            }
        }
    }

    #[test]
    fn index_zero_is_origin() {
        // The curve starts at the lattice origin at every resolution —
        // the anchor that makes keys comparable across resolutions.
        for bits in 1..=16 {
            assert_eq!(hilbert_index([0u32, 0], bits), 0);
            assert_eq!(hilbert_coords::<2>(0, bits), [0, 0]);
        }
        assert_eq!(hilbert_index([0u32, 0, 0], 8), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coordinate_beyond_resolution_panics() {
        let _ = hilbert_index([4u32, 0], 2); // 4 needs 3 bits
    }

    #[test]
    #[should_panic(expected = "bits out of range")]
    fn excessive_bits_panic_3d() {
        let _ = hilbert_index([0u32, 0, 0], 22); // 3 * 22 > 64
    }

    #[test]
    fn curve_is_continuous_2d() {
        // Consecutive Hilbert indices always map to adjacent lattice cells.
        let bits = 5;
        let n = 1u64 << (2 * bits);
        let mut prev = hilbert_coords::<2>(0, bits);
        for idx in 1..n {
            let cur = hilbert_coords::<2>(idx, bits);
            let manhattan: i64 = (0..2)
                .map(|i| (prev[i] as i64 - cur[i] as i64).abs())
                .sum();
            assert_eq!(manhattan, 1, "discontinuity at index {idx}");
            prev = cur;
        }
    }

    #[test]
    fn curve_is_continuous_3d() {
        let bits = 3;
        let n = 1u64 << (3 * bits);
        let mut prev = hilbert_coords::<3>(0, bits);
        for idx in 1..n {
            let cur = hilbert_coords::<3>(idx, bits);
            let manhattan: i64 = (0..3)
                .map(|i| (prev[i] as i64 - cur[i] as i64).abs())
                .sum();
            assert_eq!(manhattan, 1, "discontinuity at index {idx}");
            prev = cur;
        }
    }

    #[test]
    fn mapper_roundtrip_close() {
        let bb = Aabb::new(Point::new([-2.0, 3.0]), Point::new([4.0, 9.0]));
        let m = HilbertMapper::new(bb, 16);
        let p = Point::new([1.25, 7.5]);
        let key = m.key_of(&p);
        let q = m.point_of(key);
        // One cell is 6/65536 wide; round trip must stay within a cell.
        assert!(p.dist(&q) < 2.0 * 6.0 / 65536.0);
    }

    #[test]
    fn mapper_clamps_outliers() {
        let bb = Aabb::new(Point::new([0.0, 0.0]), Point::new([1.0, 1.0]));
        let m = HilbertMapper::new(bb, 8);
        // Outside points clamp to the border cells instead of panicking.
        let _ = m.key_of(&Point::new([-5.0, 0.5]));
        let _ = m.key_of(&Point::new([2.0, 2.0]));
    }

    #[test]
    fn mapper_handles_degenerate_extent() {
        // All points on a vertical line: x-extent is zero.
        let bb = Aabb::new(Point::new([1.0, 0.0]), Point::new([1.0, 10.0]));
        let m = HilbertMapper::new(bb, 8);
        let k0 = m.key_of(&Point::new([1.0, 0.0]));
        let k1 = m.key_of(&Point::new([1.0, 10.0]));
        assert_ne!(k0, k1, "keys should still vary along y");
    }

    #[test]
    fn order_is_by_key_then_index() {
        // 3 bits/axis over 200 points: every key is shared, so the tie
        // order is what is being compared.
        let bb = Aabb::new(Point::new([0.0, 0.0]), Point::new([1.0, 1.0]));
        let m = HilbertMapper::new(bb, 3);
        let mut rng = geographer_geometry::SplitMix64::new(9);
        let pts: Vec<Point<2>> =
            (0..200).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
        let keys: Vec<u64> = pts.iter().map(|p| m.key_of(p)).collect();
        let mut expected: Vec<u32> = (0..200).collect();
        expected.sort_by_key(|&i| keys[i as usize]);
        assert_eq!(m.order(&pts), expected);
        assert!(m.order(&[]).is_empty());
    }

    #[test]
    fn locality_nearby_points_nearby_keys() {
        // Spot-check the Hilbert locality property the paper relies on:
        // points close in space are usually close on the curve. We check the
        // weaker (always true) converse: consecutive keys are close in space.
        let bb = Aabb::new(Point::new([0.0, 0.0]), Point::new([1.0, 1.0]));
        let m = HilbertMapper::new(bb, 8);
        let cell = 1.0 / 256.0;
        for key in (0..(1u64 << 16) - 1).step_by(97) {
            let a = m.point_of(key);
            let b = m.point_of(key + 1);
            assert!(a.dist(&b) < 1.5 * cell);
        }
    }
}
