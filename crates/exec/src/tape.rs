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

    /// Bulk-copy `n` items starting `src_off` past `src`'s read cursor
    /// onto this ring's tail — the splitter/joiner `memcpy` path.  The
    /// caller has already checked availability and capacity; the copy
    /// runs in at most four `copy_from_slice` segments.
    pub fn copy_in_from(&mut self, src: &Ring<T>, src_off: u64, n: u64) {
        let mut done = 0u64;
        while done < n {
            let si = ((src.head + src_off + done) & src.mask) as usize;
            let di = ((self.tail + done) & self.mask) as usize;
            let run = (n - done)
                .min(src.capacity() - si as u64)
                .min(self.capacity() - di as u64) as usize;
            self.buf[di..di + run].copy_from_slice(&src.buf[si..si + run]);
            done += run as u64;
        }
        self.tail += n;
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
    /// element type; returns how many were taken.
    pub fn extend_from_f64(&mut self, items: &[f64]) -> usize {
        let n = (items.len() as u64).min(self.free()) as usize;
        for &v in &items[..n] {
            let _ = self.push_f(v);
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

/// Move `n` items from the front of `src` to the tail of `dst`,
/// coercing between element types exactly as the reference machine's
/// `push_to_port` does (`Value::coerce` to the destination edge type).
/// Same-typed moves are bulk slice copies.
pub fn move_items(src: &mut Tape, dst: &mut Tape, n: u64) -> Result<(), String> {
    if src.len() < n {
        return Err(format!("tape underflow: need {n}, have {}", src.len()));
    }
    if dst.free() < n {
        return Err(format!("tape overflow: need {n} free, have {}", dst.free()));
    }
    match (&mut *src, &mut *dst) {
        (Tape::I(s), Tape::I(d)) => {
            d.copy_in_from(s, 0, n);
            s.advance(n);
        }
        (Tape::F(s), Tape::F(d)) => {
            d.copy_in_from(s, 0, n);
            s.advance(n);
        }
        (Tape::I(s), Tape::F(d)) => {
            for i in 0..n {
                let v = s.get(i).unwrap_or_default();
                let _ = d.push(v as f64);
            }
            s.advance(n);
        }
        (Tape::F(s), Tape::I(d)) => {
            for i in 0..n {
                let v = s.get(i).unwrap_or_default();
                let _ = d.push(v as i64);
            }
            s.advance(n);
        }
    }
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
        let mut dst: Ring<i64> = Ring::with_capacity(8);
        // Advance the source cursor so the live region wraps.
        for i in 0..3 {
            src.push(i).expect("fits");
        }
        src.advance(3);
        for i in 0..4 {
            src.push(10 + i).expect("fits");
        }
        dst.copy_in_from(&src, 0, 4);
        assert_eq!(dst.to_vec(), vec![10, 11, 12, 13]);
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
