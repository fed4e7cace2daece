//! Monomorphic unboxed ring-buffer tapes.
//!
//! Every channel of a compiled graph is a [`Ring`] over `i64` or `f64`
//! (never a boxed `Value`), with a power-of-two capacity sized once from
//! the firing plan's simulated maximum occupancy.  Cursors are absolute
//! `u64` counts (items ever pushed / ever popped) so the paper's `n(t)`
//! and `p(t)` quantities fall out of the representation for free, and
//! indexing is a mask — the backing buffer never grows or shifts in
//! steady state.

use streamit_graph::DataType;

/// A fixed-capacity single-producer FIFO over a `Copy` element type.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    buf: Box<[T]>,
    mask: u64,
    /// Items ever popped (the read cursor).
    head: u64,
    /// Items ever pushed (the write cursor).
    tail: u64,
}

impl<T: Copy + Default> Ring<T> {
    /// A ring holding at least `min_cap` items (rounded up to a power of
    /// two, minimum 1).
    pub fn with_capacity(min_cap: u64) -> Ring<T> {
        let cap = min_cap.next_power_of_two().max(1);
        Ring {
            buf: vec![T::default(); cap as usize].into_boxed_slice(),
            mask: cap - 1,
            head: 0,
            tail: 0,
        }
    }

    /// [`Ring::with_capacity`] for a size the caller of a run chose
    /// rather than the planner: `None` when the rounded capacity
    /// overflows or the allocator refuses it, where `with_capacity`
    /// would abort the process.
    pub fn try_with_capacity(min_cap: u64) -> Option<Ring<T>> {
        let cap = min_cap.checked_next_power_of_two()?;
        let mut buf = Vec::new();
        buf.try_reserve_exact(usize::try_from(cap).ok()?).ok()?;
        buf.resize(cap as usize, T::default());
        Some(Ring {
            buf: buf.into_boxed_slice(),
            mask: cap - 1,
            head: 0,
            tail: 0,
        })
    }

    /// A zero-capacity placeholder used while a tape is temporarily taken
    /// out of its slot.  Never read or written.
    pub fn placeholder() -> Ring<T> {
        Ring {
            buf: Vec::new().into_boxed_slice(),
            mask: 0,
            head: 0,
            tail: 0,
        }
    }

    #[inline]
    pub fn capacity(&self) -> u64 {
        self.buf.len() as u64
    }

    #[inline]
    pub fn len(&self) -> u64 {
        self.tail - self.head
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Read the item `i` positions past the read cursor, if present.
    #[inline]
    pub fn get(&self, i: u64) -> Option<T> {
        if self.head + i < self.tail {
            Some(self.buf[((self.head + i) & self.mask) as usize])
        } else {
            None
        }
    }

    /// The `n` items starting `off` past the read cursor, as the (at
    /// most two) contiguous runs they occupy in the buffer, in FIFO
    /// order; `None` unless all `n` are present.
    #[inline]
    pub fn window(&self, off: u64, n: u64) -> Option<(&[T], &[T])> {
        let start = self.head.checked_add(off)?;
        if start.checked_add(n)? > self.tail {
            return None;
        }
        let at = (start & self.mask) as usize;
        let first = (n as usize).min(self.buf.len() - at);
        Some((&self.buf[at..at + first], &self.buf[..n as usize - first]))
    }

    /// Append one item; fails when the ring is full (the firing plan
    /// sizes capacities so this cannot happen in steady state).  The
    /// unit error is deliberate: overflow is a planner bug the caller
    /// wraps in its own diagnostic, so there is nothing to carry.
    #[inline]
    #[allow(clippy::result_unit_err)]
    pub fn push(&mut self, v: T) -> Result<(), ()> {
        if self.len() >= self.capacity() {
            return Err(());
        }
        self.buf[(self.tail & self.mask) as usize] = v;
        self.tail += 1;
        Ok(())
    }

    /// Discard `n` items from the front (pops were performed through a
    /// read cursor during the firing; the prefix is released at the end).
    #[inline]
    pub fn advance(&mut self, n: u64) {
        debug_assert!(n <= self.len());
        self.head += n;
    }

    /// [`copy_at`] between two rings, handing `each` contiguous runs.
    #[inline(always)]
    fn copy_blocks<S: Copy + Default>(
        &mut self,
        (dst_at, dst_step): (u64, u64),
        src: &Ring<S>,
        (src_at, src_step): (u64, u64),
        n: u64,
        blocks: u64,
        each: impl Fn(&mut [T], &[S]) + Copy,
    ) {
        for f in 0..blocks {
            self.copy_runs(dst_at + f * dst_step, src, src_at + f * src_step, n, each);
        }
    }

    /// Write the `n` items starting `src_off` past `src`'s read cursor
    /// into the slots starting `dst_off` past this ring's write cursor,
    /// handing `each` at most four pairs of contiguous runs; moves
    /// neither cursor.  The caller has checked `src_off + n <= src.len()`
    /// and `dst_off + n <= self.free()`.
    #[inline(always)]
    fn copy_runs<S: Copy + Default>(
        &mut self,
        dst_off: u64,
        src: &Ring<S>,
        src_off: u64,
        n: u64,
        each: impl Fn(&mut [T], &[S]),
    ) {
        debug_assert!(src_off + n <= src.len() && dst_off + n <= self.capacity() - self.len());
        // Most copies are short and wrap neither ring: one run.
        let (si, di) = (
            ((src.head + src_off) & src.mask) as usize,
            ((self.tail + dst_off) & self.mask) as usize,
        );
        let len = n as usize;
        if len <= src.buf.len() - si && len <= self.buf.len() - di {
            return each(&mut self.buf[di..di + len], &src.buf[si..si + len]);
        }
        let mut done = 0u64;
        while done < n {
            let si = ((src.head + src_off + done) & src.mask) as usize;
            let di = ((self.tail + dst_off + done) & self.mask) as usize;
            let run = (n - done)
                .min(src.capacity() - si as u64)
                .min(self.capacity() - di as u64) as usize;
            each(&mut self.buf[di..di + run], &src.buf[si..si + run]);
            done += run as u64;
        }
    }

    /// Publish the `n` slots past the write cursor, written by
    /// [`copy_at`], as items.
    #[inline]
    pub fn commit(&mut self, n: u64) {
        debug_assert!(n <= self.capacity() - self.len());
        self.tail += n;
    }

    /// The free slots from the write cursor up to where they wrap:
    /// pushes written here are published by [`Ring::commit`].
    #[inline]
    pub(crate) fn spare_mut(&mut self) -> &mut [T] {
        let at = (self.tail & self.mask) as usize;
        let free = (self.capacity() - self.len()) as usize;
        let end = self.buf.len().min(at + free);
        &mut self.buf[at..end]
    }

    /// Append `items`; the caller has checked they fit.  At most two
    /// `copy_from_slice` runs.
    pub(crate) fn extend_from_slice(&mut self, items: &[T]) {
        debug_assert!(items.len() as u64 <= self.capacity() - self.len());
        let at = (self.tail & self.mask) as usize;
        let first = items.len().min(self.buf.len() - at);
        self.buf[at..at + first].copy_from_slice(&items[..first]);
        self.buf[..items.len() - first].copy_from_slice(&items[first..]);
        self.tail += items.len() as u64;
    }

    /// Copy the first `n` live items (in FIFO order, starting at the
    /// read cursor) into `dst[..n]` without consuming them — the kernel
    /// window-batching path.  The caller has checked `n <= len()`; the
    /// copy runs in at most two `copy_from_slice` segments.
    pub fn copy_out(&self, n: u64, dst: &mut [T]) {
        debug_assert!(n <= self.len());
        let mut done = 0u64;
        while done < n {
            let si = ((self.head + done) & self.mask) as usize;
            let run = ((n - done) as usize).min(self.buf.len() - si);
            dst[done as usize..done as usize + run].copy_from_slice(&self.buf[si..si + run]);
            done += run as u64;
        }
    }

    /// Copy the live contents out in FIFO order.
    pub fn to_vec(&self) -> Vec<T> {
        (0..self.len()).filter_map(|i| self.get(i)).collect()
    }
}

/// A typed tape: the runtime face of one channel (or the external
/// input/output stream).
#[derive(Debug, Clone)]
pub enum Tape {
    I(Ring<i64>),
    F(Ring<f64>),
}

impl Tape {
    pub fn with_capacity(ty: DataType, min_cap: u64) -> Tape {
        match ty {
            DataType::Int => Tape::I(Ring::with_capacity(min_cap)),
            DataType::Float => Tape::F(Ring::with_capacity(min_cap)),
        }
    }

    /// See [`Ring::try_with_capacity`].
    pub fn try_with_capacity(ty: DataType, min_cap: u64) -> Option<Tape> {
        Some(match ty {
            DataType::Int => Tape::I(Ring::try_with_capacity(min_cap)?),
            DataType::Float => Tape::F(Ring::try_with_capacity(min_cap)?),
        })
    }

    /// Placeholder left in a slot while the real tape is taken out.
    pub fn placeholder() -> Tape {
        Tape::I(Ring::placeholder())
    }

    #[inline]
    pub fn len(&self) -> u64 {
        match self {
            Tape::I(r) => r.len(),
            Tape::F(r) => r.len(),
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        match self {
            Tape::I(r) => r.is_empty(),
            Tape::F(r) => r.is_empty(),
        }
    }

    #[inline]
    pub fn capacity(&self) -> u64 {
        match self {
            Tape::I(r) => r.capacity(),
            Tape::F(r) => r.capacity(),
        }
    }

    #[inline]
    pub fn free(&self) -> u64 {
        self.capacity() - self.len()
    }

    /// Push a value held as `i64`, coercing to the tape's element type
    /// exactly as `Value::coerce` does.
    #[inline]
    #[allow(clippy::result_unit_err)]
    pub fn push_i(&mut self, v: i64) -> Result<(), ()> {
        match self {
            Tape::I(r) => r.push(v),
            Tape::F(r) => r.push(v as f64),
        }
    }

    /// Push a value held as `f64`, coercing to the tape's element type.
    #[inline]
    #[allow(clippy::result_unit_err)]
    pub fn push_f(&mut self, v: f64) -> Result<(), ()> {
        match self {
            Tape::I(r) => r.push(v as i64),
            Tape::F(r) => r.push(v),
        }
    }

    /// Append as many of `items` as fit, coercing each to the tape's
    /// element type; returns how many were taken.  Onto a float tape
    /// this is one bulk copy.
    pub fn extend_from_f64(&mut self, items: &[f64]) -> usize {
        let n = (items.len() as u64).min(self.free()) as usize;
        match self {
            Tape::F(r) => r.extend_from_slice(&items[..n]),
            Tape::I(r) => {
                for &v in &items[..n] {
                    let _ = r.push(v as i64);
                }
            }
        }
        n
    }

    /// Read the item `i` positions past the read cursor without
    /// consuming it, preserving its type.
    #[inline]
    pub fn get(&self, i: u64) -> Option<Raw> {
        match self {
            Tape::I(r) => r.get(i).map(Raw::I),
            Tape::F(r) => r.get(i).map(Raw::F),
        }
    }

    /// Release `n` items from the front.
    #[inline]
    pub fn advance(&mut self, n: u64) {
        match self {
            Tape::I(r) => r.advance(n),
            Tape::F(r) => r.advance(n),
        }
    }

    /// Publish `n` slots past the write cursor, written by [`copy_at`].
    #[inline]
    pub fn commit(&mut self, n: u64) {
        match self {
            Tape::I(r) => r.commit(n),
            Tape::F(r) => r.commit(n),
        }
    }

    /// Push a typed raw value, coercing to the tape's element type.
    #[inline]
    #[allow(clippy::result_unit_err)]
    pub fn push_raw(&mut self, v: Raw) -> Result<(), ()> {
        match v {
            Raw::I(x) => self.push_i(x),
            Raw::F(x) => self.push_f(x),
        }
    }
}

/// An unboxed typed item in flight between tapes (the splitter/joiner
/// analogue of `Value`, but `Copy` over machine scalars).
#[derive(Debug, Clone, Copy)]
pub enum Raw {
    I(i64),
    F(f64),
}

impl Raw {
    #[inline]
    pub fn as_i64(self) -> i64 {
        match self {
            Raw::I(x) => x,
            Raw::F(x) => x as i64,
        }
    }

    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            Raw::I(x) => x as f64,
            Raw::F(x) => x,
        }
    }
}

/// Copy `blocks` blocks of `n` items from `src` to `dst`, coercing
/// between element types exactly as the reference machine's
/// `push_to_port` does (`Value::coerce` to the destination edge type):
/// the splitter/joiner path.  `src_at` and `dst_at` are `(offset, step)`:
/// block `f` is read `offset + f·step` items past `src`'s read cursor and
/// written as far past `dst`'s write cursor.  Same-typed runs are
/// `copy_from_slice`; int↔float ones convert item by item.  Neither
/// cursor moves — [`Tape::commit`] publishes what was written and
/// [`Tape::advance`] releases what was read — so one op places every
/// firing's items at their offsets and settles the cursors once.  The
/// caller has checked that every block is staged on `src` and has room
/// on `dst`.
///
/// Always inlined: initialization fires `fmradio(10, 64)`'s duplicate
/// splitter 64 times, one item onto ten outputs each, and a call per
/// output cost that program's first output 0.7 µs.
#[inline(always)]
pub fn copy_at(
    src: &Tape,
    src_at: (u64, u64),
    dst: &mut Tape,
    dst_at: (u64, u64),
    n: u64,
    blocks: u64,
) {
    match (src, dst) {
        (Tape::I(s), Tape::I(d)) => d.copy_blocks(dst_at, s, src_at, n, blocks, copy_run),
        (Tape::F(s), Tape::F(d)) => d.copy_blocks(dst_at, s, src_at, n, blocks, copy_run),
        (Tape::I(s), Tape::F(d)) => convert(s, src_at, d, dst_at, n, blocks, |v| v as f64),
        (Tape::F(s), Tape::I(d)) => convert(s, src_at, d, dst_at, n, blocks, |v| v as i64),
    }
}

/// [`copy_at`] between element types, item by item; out of line, so
/// that the same-typed copies inline where they are used.
#[inline(never)]
fn convert<S: Copy + Default, T: Copy + Default>(
    src: &Ring<S>,
    src_at: (u64, u64),
    dst: &mut Ring<T>,
    dst_at: (u64, u64),
    n: u64,
    blocks: u64,
    f: impl Fn(S) -> T + Copy,
) {
    dst.copy_blocks(dst_at, src, src_at, n, blocks, |d, s| {
        d.iter_mut().zip(s).for_each(|(d, &s)| *d = f(s))
    })
}

/// One same-typed run.  A lone item is stored directly: a `memcpy` call
/// costs more than it, and initialization fires splitters one item at a
/// time.
#[inline]
fn copy_run<T: Copy>(d: &mut [T], s: &[T]) {
    match (d, s) {
        ([d], [s]) => *d = *s,
        (d, s) => d.copy_from_slice(s),
    }
}

/// Move `n` items from the front of `src` to the tail of `dst`: a
/// checked [`copy_at`] at offset zero, then both cursors.
pub fn move_items(src: &mut Tape, dst: &mut Tape, n: u64) -> Result<(), String> {
    if src.len() < n {
        return Err(format!("tape underflow: need {n}, have {}", src.len()));
    }
    if dst.free() < n {
        return Err(format!("tape overflow: need {n} free, have {}", dst.free()));
    }
    copy_at(src, (0, 0), dst, (0, 0), n, 1);
    dst.commit(n);
    src.advance(n);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_without_realloc() {
        let mut r: Ring<i64> = Ring::with_capacity(3); // rounds to 4
        assert_eq!(r.capacity(), 4);
        for round in 0..10 {
            for i in 0..4 {
                r.push(round * 4 + i).expect("fits");
            }
            assert!(r.push(99).is_err(), "full ring rejects");
            assert_eq!(r.get(0), Some(round * 4));
            assert_eq!(r.get(3), Some(round * 4 + 3));
            r.advance(4);
            assert_eq!(r.len(), 0);
        }
    }

    #[test]
    fn bulk_copy_crosses_wrap_boundary() {
        let mut src: Ring<i64> = Ring::with_capacity(4);
        let dst: Ring<i64> = Ring::with_capacity(8);
        // Advance the source cursor so the live region wraps.
        for i in 0..3 {
            src.push(i).expect("fits");
        }
        src.advance(3);
        for i in 0..4 {
            src.push(10 + i).expect("fits");
        }
        let (src, mut dst) = (Tape::I(src), Tape::I(dst));
        // Two blocks written out of order at their offsets, then
        // published at once: the destination's slots wrap as well.
        for _ in 0..6 {
            dst.push_i(0).expect("fits");
        }
        dst.advance(6);
        copy_at(&src, (2, 0), &mut dst, (2, 0), 2, 1);
        copy_at(&src, (0, 0), &mut dst, (0, 0), 2, 1);
        dst.commit(4);
        match dst {
            Tape::I(r) => assert_eq!(r.to_vec(), vec![10, 11, 12, 13]),
            Tape::F(_) => panic!("wrong tape type"),
        }
        // Strided blocks, as a joiner interleaves: the first two items
        // to the even slots, the last two to the odd ones, coerced.
        let mut f = Tape::F(Ring::with_capacity(4));
        copy_at(&src, (0, 1), &mut f, (0, 2), 1, 2);
        copy_at(&src, (2, 1), &mut f, (1, 2), 1, 2);
        f.commit(4);
        match f {
            Tape::F(r) => assert_eq!(r.to_vec(), vec![10.0, 12.0, 11.0, 13.0]),
            Tape::I(_) => panic!("wrong tape type"),
        }
    }

    #[test]
    fn extend_from_f64_wraps_and_coerces() {
        let mut f = Tape::F(Ring::with_capacity(4));
        let mut i = Tape::I(Ring::with_capacity(4));
        for t in [&mut f, &mut i] {
            assert_eq!(t.extend_from_f64(&[1.0, 2.0, 3.0]), 3);
            t.advance(3);
            assert_eq!(t.extend_from_f64(&[-0.0, 1.5, 2.5, 3.5, 4.5]), 4);
        }
        match (f, i) {
            (Tape::F(f), Tape::I(i)) => {
                let bits: Vec<u64> = f.to_vec().iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = [-0.0f64, 1.5, 2.5, 3.5].map(f64::to_bits).into();
                assert_eq!(bits, want);
                assert_eq!(i.to_vec(), vec![0, 1, 2, 3]);
            }
            _ => panic!("wrong tape types"),
        }
    }

    #[test]
    fn window_splits_at_the_wrap_and_refuses_absent_items() {
        let mut r: Ring<i64> = Ring::with_capacity(4);
        for i in 0..3 {
            r.push(i).expect("fits");
        }
        r.advance(3);
        for i in 0..4 {
            r.push(10 + i).expect("fits");
        }
        // Live items 10..=13 sit at buffer slots 3, 0, 1, 2.
        assert_eq!(r.window(0, 4), Some((&[10][..], &[11, 12, 13][..])));
        assert_eq!(r.window(1, 2), Some((&[11, 12][..], &[][..])));
        assert_eq!(r.window(2, 3), None);
        assert_eq!(r.window(u64::MAX, 2), None);
    }

    #[test]
    fn move_items_coerces_between_types() {
        let mut src = Tape::F(Ring::with_capacity(4));
        let mut dst = Tape::I(Ring::with_capacity(4));
        src.push_f(2.9).expect("fits");
        src.push_f(-1.2).expect("fits");
        move_items(&mut src, &mut dst, 2).expect("moves");
        match dst {
            Tape::I(r) => assert_eq!(r.to_vec(), vec![2, -1]),
            Tape::F(_) => panic!("wrong tape type"),
        }
    }

    #[test]
    fn move_items_reports_underflow() {
        let mut src = Tape::I(Ring::with_capacity(2));
        let mut dst = Tape::I(Ring::with_capacity(2));
        assert!(move_items(&mut src, &mut dst, 1).is_err());
    }
}
