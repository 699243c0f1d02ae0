//! A from-scratch implementation of Roaring bitmaps (Chambi et al., 2015),
//! the principal data-storage format of the zenvisage in-memory database
//! (thesis §6.2, "Roaring Bitmap Database").
//!
//! A roaring bitmap partitions the `u32` universe into 2^16 chunks keyed by
//! the high 16 bits of each value. Each non-empty chunk stores the low 16
//! bits in one of three container kinds:
//!
//! * **Array** — a sorted `Vec<u16>`, used while cardinality ≤ 4096;
//! * **Bitmap** — a fixed 1024×`u64` bitset, used above 4096;
//! * **Run** — sorted `(start, length-1)` run pairs, produced by
//!   [`RoaringBitmap::run_optimize`] when runs compress better.
//!
//! Binary set operations are specialized for Array/Bitmap pairs; Run
//! containers are expanded to their Array/Bitmap equivalent first (a
//! simplification relative to the C implementation that preserves
//! semantics — run containers here are a storage optimization only).
//!
//! # Containers are shared between clones
//!
//! Each container sits behind `Arc`, so cloning a bitmap copies one
//! pointer per container. A write goes through `Arc::make_mut`, which
//! copies a container only while another clone still holds it. Bitmap
//! indexes rely on this: an append builds the next index snapshot as a
//! clone of the current one and writes only row ids past the old row
//! count, so it copies at most the last container of each bitmap it
//! touches (or creates a new one); every container below the old tail's
//! key stays shared with the previous snapshot, which readers may still
//! be scanning. [`RoaringBitmap::run_optimize_from`] re-compresses just
//! those written containers and leaves the shared ones alone.

use std::sync::Arc;

const ARRAY_MAX: usize = 4096;
const BITMAP_WORDS: usize = 1024;

/// One 2^16-value chunk of the bitmap.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Container {
    /// Sorted, deduplicated low-16-bit values.
    Array(Vec<u16>),
    /// 65536-bit bitset.
    Bitmap(Box<[u64; BITMAP_WORDS]>),
    /// Sorted, non-overlapping, non-adjacent runs `(start, len_minus_one)`.
    Run(Vec<(u16, u16)>),
}

impl Container {
    fn new() -> Self {
        Container::Array(Vec::new())
    }

    /// The container of strictly ascending `lows`, in the kind
    /// one-at-a-time inserts would leave: Array up to [`ARRAY_MAX`]
    /// values, Bitmap beyond.
    fn from_sorted(lows: &[u16]) -> Self {
        if lows.len() > ARRAY_MAX {
            Container::Bitmap(Self::array_to_bitmap(lows))
        } else {
            Container::Array(lows.to_vec())
        }
    }

    fn cardinality(&self) -> usize {
        match self {
            Container::Array(v) => v.len(),
            Container::Bitmap(b) => b.iter().map(|w| w.count_ones() as usize).sum(),
            Container::Run(runs) => runs.iter().map(|&(_, l)| l as usize + 1).sum(),
        }
    }

    fn contains(&self, low: u16) -> bool {
        match self {
            Container::Array(v) => v.binary_search(&low).is_ok(),
            Container::Bitmap(b) => b[(low >> 6) as usize] & (1u64 << (low & 63)) != 0,
            Container::Run(runs) => match runs.binary_search_by_key(&low, |&(s, _)| s) {
                Ok(_) => true,
                Err(0) => false,
                Err(i) => {
                    let (s, l) = runs[i - 1];
                    low - s <= l
                }
            },
        }
    }

    /// Insert; returns true if newly added. May upgrade Array → Bitmap.
    fn insert(&mut self, low: u16) -> bool {
        match self {
            Container::Array(v) => match v.binary_search(&low) {
                Ok(_) => false,
                Err(pos) => {
                    if v.len() >= ARRAY_MAX {
                        let mut bm = Self::array_to_bitmap(v);
                        Self::bitmap_set(&mut bm, low);
                        *self = Container::Bitmap(bm);
                    } else {
                        v.insert(pos, low);
                    }
                    true
                }
            },
            Container::Bitmap(b) => {
                let w = &mut b[(low >> 6) as usize];
                let mask = 1u64 << (low & 63);
                let added = *w & mask == 0;
                *w |= mask;
                added
            }
            Container::Run(_) => {
                self.devolve();
                self.insert(low)
            }
        }
    }

    /// Remove; returns true if present. May downgrade Bitmap → Array.
    fn remove(&mut self, low: u16) -> bool {
        match self {
            Container::Array(v) => match v.binary_search(&low) {
                Ok(pos) => {
                    v.remove(pos);
                    true
                }
                Err(_) => false,
            },
            Container::Bitmap(b) => {
                let w = &mut b[(low >> 6) as usize];
                let mask = 1u64 << (low & 63);
                let present = *w & mask != 0;
                *w &= !mask;
                if present && self.cardinality() <= ARRAY_MAX {
                    *self = Container::Array(self.to_array_vec());
                }
                present
            }
            Container::Run(_) => {
                self.devolve();
                self.remove(low)
            }
        }
    }

    fn array_to_bitmap(v: &[u16]) -> Box<[u64; BITMAP_WORDS]> {
        let mut b: Box<[u64; BITMAP_WORDS]> = Box::new([0u64; BITMAP_WORDS]);
        for &low in v {
            Self::bitmap_set(&mut b, low);
        }
        b
    }

    #[inline]
    fn bitmap_set(b: &mut [u64; BITMAP_WORDS], low: u16) {
        b[(low >> 6) as usize] |= 1u64 << (low & 63);
    }

    fn to_array_vec(&self) -> Vec<u16> {
        match self {
            Container::Array(v) => v.clone(),
            Container::Bitmap(b) => {
                let mut out = Vec::with_capacity(self.cardinality());
                for (wi, &w) in b.iter().enumerate() {
                    let mut bits = w;
                    while bits != 0 {
                        let t = bits.trailing_zeros();
                        out.push(((wi as u32) << 6 | t) as u16);
                        bits &= bits - 1;
                    }
                }
                out
            }
            Container::Run(runs) => {
                let mut out = Vec::with_capacity(self.cardinality());
                for &(s, l) in runs {
                    for v in s..=s.saturating_add(l) {
                        out.push(v);
                    }
                }
                out
            }
        }
    }

    /// Replace a Run container by its Array/Bitmap equivalent.
    fn devolve(&mut self) {
        if let Container::Run(_) = self {
            let card = self.cardinality();
            if card > ARRAY_MAX {
                let mut b: Box<[u64; BITMAP_WORDS]> = Box::new([0u64; BITMAP_WORDS]);
                if let Container::Run(runs) = self {
                    for &(s, l) in runs.iter() {
                        // Set bits s..=s+l word-by-word.
                        let end = s as u32 + l as u32;
                        let mut cur = s as u32;
                        while cur <= end {
                            let wi = (cur >> 6) as usize;
                            let start_bit = cur & 63;
                            let span = (end - cur).min(63 - start_bit);
                            let mask = if span == 63 && start_bit == 0 {
                                u64::MAX
                            } else {
                                ((1u64 << (span + 1)) - 1) << start_bit
                            };
                            b[wi] |= mask;
                            cur += span + 1;
                        }
                    }
                }
                *self = Container::Bitmap(b);
            } else {
                *self = Container::Array(self.to_array_vec());
            }
        }
    }

    /// Normalized (non-Run) copy for binary ops.
    fn norm(&self) -> Container {
        let mut c = self.clone();
        c.devolve();
        c
    }

    fn and(&self, other: &Container) -> Container {
        use Container::*;
        match (self.norm(), other.norm()) {
            (Array(a), Array(b)) => Array(intersect_sorted(&a, &b)),
            (Array(a), Bitmap(b)) | (Bitmap(b), Array(a)) => Array(
                a.iter()
                    .copied()
                    .filter(|&v| b[(v >> 6) as usize] & (1 << (v & 63)) != 0)
                    .collect(),
            ),
            (Bitmap(a), Bitmap(b)) => {
                let mut out: Box<[u64; BITMAP_WORDS]> = Box::new([0u64; BITMAP_WORDS]);
                let mut card = 0usize;
                for i in 0..BITMAP_WORDS {
                    out[i] = a[i] & b[i];
                    card += out[i].count_ones() as usize;
                }
                let c = Bitmap(out);
                if card <= ARRAY_MAX {
                    Array(c.to_array_vec())
                } else {
                    c
                }
            }
            _ => unreachable!("norm() removes Run containers"),
        }
    }

    fn or(&self, other: &Container) -> Container {
        use Container::*;
        match (self.norm(), other.norm()) {
            (Array(a), Array(b)) => {
                let merged = union_sorted(&a, &b);
                if merged.len() > ARRAY_MAX {
                    Bitmap(Self::array_to_bitmap(&merged))
                } else {
                    Array(merged)
                }
            }
            (Array(a), Bitmap(b)) | (Bitmap(b), Array(a)) => {
                let mut out = b.clone();
                for &v in &a {
                    Self::bitmap_set(&mut out, v);
                }
                Bitmap(out)
            }
            (Bitmap(a), Bitmap(b)) => {
                let mut out: Box<[u64; BITMAP_WORDS]> = Box::new([0u64; BITMAP_WORDS]);
                for i in 0..BITMAP_WORDS {
                    out[i] = a[i] | b[i];
                }
                Bitmap(out)
            }
            _ => unreachable!(),
        }
    }

    fn and_not(&self, other: &Container) -> Container {
        use Container::*;
        match (self.norm(), other.norm()) {
            (Array(a), Array(b)) => Array(difference_sorted(&a, &b)),
            (Array(a), Bitmap(b)) => Array(
                a.iter()
                    .copied()
                    .filter(|&v| b[(v >> 6) as usize] & (1 << (v & 63)) == 0)
                    .collect(),
            ),
            (Bitmap(a), Array(b)) => {
                let mut out = a.clone();
                for &v in &b {
                    out[(v >> 6) as usize] &= !(1u64 << (v & 63));
                }
                let c = Bitmap(out);
                if c.cardinality() <= ARRAY_MAX {
                    Array(c.to_array_vec())
                } else {
                    c
                }
            }
            (Bitmap(a), Bitmap(b)) => {
                let mut out: Box<[u64; BITMAP_WORDS]> = Box::new([0u64; BITMAP_WORDS]);
                let mut card = 0usize;
                for i in 0..BITMAP_WORDS {
                    out[i] = a[i] & !b[i];
                    card += out[i].count_ones() as usize;
                }
                let c = Bitmap(out);
                if card <= ARRAY_MAX {
                    Array(c.to_array_vec())
                } else {
                    c
                }
            }
            _ => unreachable!(),
        }
    }

    /// The Run form of this container, if that representation is
    /// strictly smaller (`None` leaves it as is — which makes
    /// re-optimizing an optimized container a no-op).
    fn run_optimized(&self) -> Option<Container> {
        let vals = self.to_array_vec();
        if vals.is_empty() {
            return None;
        }
        let mut runs: Vec<(u16, u16)> = Vec::new();
        let mut start = vals[0];
        let mut prev = vals[0];
        for &v in &vals[1..] {
            if v == prev + 1 {
                prev = v;
            } else {
                runs.push((start, prev - start));
                start = v;
                prev = v;
            }
        }
        runs.push((start, prev - start));
        // Size heuristics mirror the paper: run = 4 bytes/run, array =
        // 2 bytes/value, bitmap = 8192 bytes.
        let run_bytes = runs.len() * 4;
        let current_bytes = match self {
            Container::Array(v) => v.len() * 2,
            Container::Bitmap(_) => 8192,
            Container::Run(r) => r.len() * 4,
        };
        (run_bytes < current_bytes).then_some(Container::Run(runs))
    }

    /// [`Container::norm`] for a shared container: Array and Bitmap
    /// containers are already normal, so they are shared, not copied.
    fn norm_shared(c: &Arc<Container>) -> Arc<Container> {
        match **c {
            Container::Run(_) => Arc::new(c.norm()),
            _ => Arc::clone(c),
        }
    }
}

fn intersect_sorted(a: &[u16], b: &[u16]) -> Vec<u16> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    // Galloping pays off when sizes are very skewed; otherwise linear merge.
    if large.len() / (small.len().max(1)) >= 32 {
        let mut out = Vec::with_capacity(small.len());
        let mut lo = 0usize;
        for &v in small {
            match large[lo..].binary_search(&v) {
                Ok(p) => {
                    out.push(v);
                    lo += p + 1;
                }
                Err(p) => lo += p,
            }
            if lo >= large.len() {
                break;
            }
        }
        out
    } else {
        let mut out = Vec::with_capacity(small.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }
}

fn union_sorted(a: &[u16], b: &[u16]) -> Vec<u16> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

fn difference_sorted(a: &[u16], b: &[u16]) -> Vec<u16> {
    let mut out = Vec::with_capacity(a.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out
}

/// Per-kind container census of one bitmap (compression reporting and
/// tests that must prove they exercised every kind).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContainerCounts {
    pub array: usize,
    pub bitmap: usize,
    pub run: usize,
}

impl ContainerCounts {
    pub fn merge(&mut self, other: &ContainerCounts) {
        self.array += other.array;
        self.bitmap += other.bitmap;
        self.run += other.run;
    }
}

/// A compressed bitmap over `u32` row ids.
///
/// Equality is structural: two bitmaps are equal when they hold the same
/// containers under the same keys, *including* each container's kind
/// (Array, Bitmap or Run) — so an index refreshed in place can be
/// checked container for container against a fresh build.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoaringBitmap {
    /// `(high 16 bits, container)` pairs sorted by key. Containers are
    /// shared between clones (see the module docs).
    containers: Vec<(u16, Arc<Container>)>,
}

impl RoaringBitmap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an ascending iterator of unique values (fast append path).
    pub fn from_sorted_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut bm = Self::new();
        let mut last: Option<u32> = None;
        for v in iter {
            if let Some(prev) = last {
                assert!(
                    v > prev,
                    "from_sorted_iter requires strictly ascending input"
                );
            }
            bm.push_unchecked(v);
            last = Some(v);
        }
        bm
    }

    /// Append a value known to be ≥ everything present (O(1) amortized,
    /// the fast path for building row-id indexes in ascending row order).
    ///
    /// Debug builds assert monotonicity; release builds trust the caller.
    pub fn push_ascending(&mut self, value: u32) {
        debug_assert!(
            self.containers.is_empty() || self.max().unwrap() < value,
            "push_ascending requires strictly ascending input"
        );
        self.push_unchecked(value);
    }

    fn push_unchecked(&mut self, value: u32) {
        let hi = (value >> 16) as u16;
        let lo = value as u16;
        match self.containers.last_mut() {
            Some((key, c)) if *key == hi => {
                Arc::make_mut(c).insert(lo);
            }
            _ => {
                let mut c = Container::new();
                c.insert(lo);
                self.containers.push((hi, Arc::new(c)));
            }
        }
    }

    /// Append one whole container: `lows` are the strictly ascending
    /// low 16 bits of values whose high 16 bits are `key`, and `key` is
    /// above every key present. Leaves exactly what `push_ascending` of
    /// each value would, minus the per-value container writes — the
    /// bulk path for building indexes a 2^16-row window at a time.
    pub(crate) fn push_container(&mut self, key: u16, lows: &[u16]) {
        debug_assert!(self.containers.last().is_none_or(|&(k, _)| k < key));
        debug_assert!(lows.windows(2).all(|w| w[0] < w[1]));
        if !lows.is_empty() {
            self.containers
                .push((key, Arc::new(Container::from_sorted(lows))));
        }
    }

    pub fn insert(&mut self, value: u32) -> bool {
        let hi = (value >> 16) as u16;
        let lo = value as u16;
        match self.containers.binary_search_by_key(&hi, |&(k, _)| k) {
            Ok(i) => {
                !self.containers[i].1.contains(lo)
                    && Arc::make_mut(&mut self.containers[i].1).insert(lo)
            }
            Err(i) => {
                let mut c = Container::new();
                c.insert(lo);
                self.containers.insert(i, (hi, Arc::new(c)));
                true
            }
        }
    }

    pub fn remove(&mut self, value: u32) -> bool {
        let hi = (value >> 16) as u16;
        let lo = value as u16;
        match self.containers.binary_search_by_key(&hi, |&(k, _)| k) {
            Ok(i) => {
                let removed = self.containers[i].1.contains(lo)
                    && Arc::make_mut(&mut self.containers[i].1).remove(lo);
                if removed && self.containers[i].1.cardinality() == 0 {
                    self.containers.remove(i);
                }
                removed
            }
            Err(_) => false,
        }
    }

    pub fn contains(&self, value: u32) -> bool {
        let hi = (value >> 16) as u16;
        match self.containers.binary_search_by_key(&hi, |&(k, _)| k) {
            Ok(i) => self.containers[i].1.contains(value as u16),
            Err(_) => false,
        }
    }

    pub fn len(&self) -> u64 {
        self.containers
            .iter()
            .map(|(_, c)| c.cardinality() as u64)
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.containers.is_empty()
    }

    pub fn min(&self) -> Option<u32> {
        self.containers.first().map(|(k, c)| {
            let lo = c.to_array_vec()[0];
            (*k as u32) << 16 | lo as u32
        })
    }

    pub fn max(&self) -> Option<u32> {
        self.containers.last().map(|(k, c)| {
            let lo = *c.to_array_vec().last().unwrap();
            (*k as u32) << 16 | lo as u32
        })
    }

    /// Bitwise AND (set intersection).
    pub fn and(&self, other: &RoaringBitmap) -> RoaringBitmap {
        let mut out = RoaringBitmap::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.containers.len() && j < other.containers.len() {
            let (ka, ca) = &self.containers[i];
            let (kb, cb) = &other.containers[j];
            match ka.cmp(kb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let c = ca.and(cb);
                    if c.cardinality() > 0 {
                        out.containers.push((*ka, Arc::new(c)));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Bitwise OR (set union).
    pub fn or(&self, other: &RoaringBitmap) -> RoaringBitmap {
        let mut out = RoaringBitmap::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.containers.len() && j < other.containers.len() {
            let (ka, ca) = &self.containers[i];
            let (kb, cb) = &other.containers[j];
            match ka.cmp(kb) {
                std::cmp::Ordering::Less => {
                    out.containers.push((*ka, Container::norm_shared(ca)));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.containers.push((*kb, Container::norm_shared(cb)));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.containers.push((*ka, Arc::new(ca.or(cb))));
                    i += 1;
                    j += 1;
                }
            }
        }
        for (k, c) in &self.containers[i..] {
            out.containers.push((*k, Container::norm_shared(c)));
        }
        for (k, c) in &other.containers[j..] {
            out.containers.push((*k, Container::norm_shared(c)));
        }
        out
    }

    /// Set difference `self \ other`.
    pub fn and_not(&self, other: &RoaringBitmap) -> RoaringBitmap {
        let mut out = RoaringBitmap::new();
        let mut j = 0usize;
        for (ka, ca) in &self.containers {
            while j < other.containers.len() && other.containers[j].0 < *ka {
                j += 1;
            }
            if j < other.containers.len() && other.containers[j].0 == *ka {
                let c = ca.and_not(&other.containers[j].1);
                if c.cardinality() > 0 {
                    out.containers.push((*ka, Arc::new(c)));
                }
            } else {
                out.containers.push((*ka, Container::norm_shared(ca)));
            }
        }
        out
    }

    /// Convert eligible containers to run-length encoding.
    pub fn run_optimize(&mut self) {
        self.run_optimize_from(0);
    }

    /// [`RoaringBitmap::run_optimize`] restricted to containers with key
    /// ≥ `min_key`. Optimizing is idempotent, so after an ascending
    /// append that wrote only keys ≥ `min_key` into an optimized bitmap
    /// this yields exactly the containers a whole-bitmap pass would,
    /// while shared containers below `min_key` are neither read nor
    /// copied.
    pub fn run_optimize_from(&mut self, min_key: u16) {
        let start = self.containers.partition_point(|&(k, _)| k < min_key);
        for (_, c) in &mut self.containers[start..] {
            if let Some(run) = c.run_optimized() {
                *c = Arc::new(run);
            }
        }
    }

    /// Number of leading containers `self` shares with `other` by
    /// pointer (same key, same allocation) — the structural-sharing
    /// check for index snapshots.
    pub fn shared_prefix(&self, other: &RoaringBitmap) -> usize {
        self.containers
            .iter()
            .zip(&other.containers)
            .take_while(|((ka, ca), (kb, cb))| ka == kb && Arc::ptr_eq(ca, cb))
            .count()
    }

    /// Number of containers whose key is below `key`.
    pub fn containers_below(&self, key: u16) -> usize {
        self.containers.partition_point(|&(k, _)| k < key)
    }

    /// How many containers of each kind this bitmap holds.
    pub fn container_counts(&self) -> ContainerCounts {
        let mut counts = ContainerCounts::default();
        for (_, c) in &self.containers {
            match **c {
                Container::Array(_) => counts.array += 1,
                Container::Bitmap(_) => counts.bitmap += 1,
                Container::Run(_) => counts.run += 1,
            }
        }
        counts
    }

    /// Approximate heap footprint in bytes (for compression reporting).
    pub fn size_bytes(&self) -> usize {
        self.containers
            .iter()
            .map(|(_, c)| {
                2 + match &**c {
                    Container::Array(v) => v.len() * 2,
                    Container::Bitmap(_) => 8192,
                    Container::Run(r) => r.len() * 4,
                }
            })
            .sum()
    }

    /// Iterate set values in ascending order.
    pub fn iter(&self) -> RoaringIter<'_> {
        RoaringIter {
            bitmap: self,
            container: 0,
            buffer: Vec::new(),
            pos: 0,
        }
    }

    /// Collect into a `Vec<u32>` (ascending).
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }

    /// Visit each set value without allocating an intermediate vector.
    #[inline]
    pub fn for_each<F: FnMut(u32)>(&self, mut f: F) {
        for (key, c) in &self.containers {
            let base = (*key as u32) << 16;
            match &**c {
                Container::Array(v) => {
                    for &lo in v {
                        f(base | lo as u32);
                    }
                }
                Container::Bitmap(b) => {
                    for (wi, &w) in b.iter().enumerate() {
                        let mut bits = w;
                        while bits != 0 {
                            let t = bits.trailing_zeros();
                            f(base | (wi as u32) << 6 | t);
                            bits &= bits - 1;
                        }
                    }
                }
                Container::Run(runs) => {
                    for &(s, l) in runs {
                        for lo in s as u32..=s as u32 + l as u32 {
                            f(base | lo);
                        }
                    }
                }
            }
        }
    }
}

impl FromIterator<u32> for RoaringBitmap {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut bm = RoaringBitmap::new();
        for v in iter {
            bm.insert(v);
        }
        bm
    }
}

pub struct RoaringIter<'a> {
    bitmap: &'a RoaringBitmap,
    container: usize,
    buffer: Vec<u16>,
    pos: usize,
}

impl Iterator for RoaringIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if self.pos < self.buffer.len() {
                let (key, _) = self.bitmap.containers[self.container - 1];
                let v = (key as u32) << 16 | self.buffer[self.pos] as u32;
                self.pos += 1;
                return Some(v);
            }
            if self.container >= self.bitmap.containers.len() {
                return None;
            }
            self.buffer = self.bitmap.containers[self.container].1.to_array_vec();
            self.container += 1;
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut bm = RoaringBitmap::new();
        assert!(bm.insert(5));
        assert!(!bm.insert(5));
        assert!(bm.contains(5));
        assert!(!bm.contains(6));
        assert!(bm.remove(5));
        assert!(!bm.remove(5));
        assert!(bm.is_empty());
    }

    #[test]
    fn crosses_container_boundaries() {
        let mut bm = RoaringBitmap::new();
        for v in [0u32, 65535, 65536, 131071, 131072, u32::MAX] {
            bm.insert(v);
        }
        assert_eq!(bm.len(), 6);
        assert_eq!(bm.to_vec(), vec![0, 65535, 65536, 131071, 131072, u32::MAX]);
        assert_eq!(bm.min(), Some(0));
        assert_eq!(bm.max(), Some(u32::MAX));
    }

    #[test]
    fn array_upgrades_to_bitmap_at_threshold() {
        let mut bm = RoaringBitmap::new();
        for v in 0..5000u32 {
            bm.insert(v * 2); // non-contiguous so run-optimize can't kick in
        }
        assert_eq!(bm.len(), 5000);
        assert!(matches!(*bm.containers[0].1, Container::Bitmap(_)));
        for v in 0..5000u32 {
            assert!(bm.contains(v * 2));
            assert!(!bm.contains(v * 2 + 1));
        }
    }

    #[test]
    fn bitmap_downgrades_on_removal() {
        let mut bm = RoaringBitmap::new();
        for v in 0..5000u32 {
            bm.insert(v);
        }
        assert!(matches!(*bm.containers[0].1, Container::Bitmap(_)));
        for v in 1000..5000u32 {
            bm.remove(v);
        }
        assert!(matches!(*bm.containers[0].1, Container::Array(_)));
        assert_eq!(bm.len(), 1000);
    }

    #[test]
    fn and_or_andnot_small() {
        let a: RoaringBitmap = [1u32, 2, 3, 100000].into_iter().collect();
        let b: RoaringBitmap = [2u32, 3, 4, 200000].into_iter().collect();
        assert_eq!(a.and(&b).to_vec(), vec![2, 3]);
        assert_eq!(a.or(&b).to_vec(), vec![1, 2, 3, 4, 100000, 200000]);
        assert_eq!(a.and_not(&b).to_vec(), vec![1, 100000]);
        assert_eq!(b.and_not(&a).to_vec(), vec![4, 200000]);
    }

    #[test]
    fn ops_across_mixed_container_kinds() {
        // a: dense (bitmap container), b: sparse (array container)
        let a: RoaringBitmap = (0..10000u32).collect();
        let b: RoaringBitmap = (0..10000u32).step_by(100).collect();
        assert_eq!(a.and(&b).len(), 100);
        assert_eq!(a.or(&b).len(), 10000);
        assert_eq!(a.and_not(&b).len(), 9900);
        assert_eq!(b.and_not(&a).len(), 0);
    }

    #[test]
    fn run_optimize_preserves_semantics_and_shrinks() {
        let mut bm: RoaringBitmap = (1000..3000u32).collect();
        let before = bm.size_bytes();
        bm.run_optimize();
        let after = bm.size_bytes();
        assert!(
            after < before,
            "run encoding should shrink contiguous data: {after} !< {before}"
        );
        assert!(matches!(*bm.containers[0].1, Container::Run(_)));
        assert_eq!(bm.len(), 2000);
        assert!(bm.contains(1000));
        assert!(bm.contains(2999));
        assert!(!bm.contains(3000));
        // Ops on run containers still work (via devolve).
        let other: RoaringBitmap = (2500..3500u32).collect();
        assert_eq!(bm.and(&other).len(), 500);
        assert_eq!(bm.or(&other).len(), 2500);
        // Mutation devolves the run container.
        bm.insert(5000);
        assert!(bm.contains(5000));
        assert_eq!(bm.len(), 2001);
    }

    #[test]
    fn run_container_spanning_word_boundaries_devolves_to_bitmap() {
        let mut bm: RoaringBitmap = (0..6000u32).collect();
        bm.run_optimize();
        assert!(matches!(*bm.containers[0].1, Container::Run(_)));
        // Force devolution through a set op; 6000 > ARRAY_MAX → bitmap path.
        let all: RoaringBitmap = (0..6000u32).collect();
        assert_eq!(bm.and(&all).to_vec(), (0..6000u32).collect::<Vec<_>>());
    }

    #[test]
    fn from_sorted_iter_matches_inserts() {
        let vals: Vec<u32> = (0..100000u32).step_by(7).collect();
        let a = RoaringBitmap::from_sorted_iter(vals.iter().copied());
        let b: RoaringBitmap = vals.iter().copied().collect();
        assert_eq!(a, b);
        assert_eq!(a.to_vec(), vals);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_sorted_iter_rejects_unsorted() {
        RoaringBitmap::from_sorted_iter([3u32, 2]);
    }

    #[test]
    fn for_each_matches_iter() {
        let bm: RoaringBitmap = (0..70000u32).step_by(3).collect();
        let mut collected = Vec::new();
        bm.for_each(|v| collected.push(v));
        assert_eq!(collected, bm.to_vec());
    }

    #[test]
    fn equality_distinguishes_container_kinds() {
        let array: RoaringBitmap = (1000..3000u32).collect();
        let mut run = array.clone();
        run.run_optimize();
        assert_eq!(array.to_vec(), run.to_vec(), "same set");
        assert_ne!(array, run, "an Array and a Run container are not equal");
        assert_eq!(run.container_counts().run, 1);
        assert_eq!(array.container_counts().array, 1);
    }

    #[test]
    fn clones_share_containers_until_written() {
        let mut a: RoaringBitmap = (0..200_000u32).step_by(3).collect();
        let b = a.clone();
        assert_eq!(a.shared_prefix(&b), 4, "a clone shares every container");
        a.push_ascending(200_001);
        assert_eq!(
            a.shared_prefix(&b),
            3,
            "writing the last container copies it and only it"
        );
        assert_eq!(b.max(), Some(199_998), "the original is unchanged");
        a.push_ascending(300_000);
        assert_eq!(a.shared_prefix(&b), 3);
        assert_eq!(a.containers_below(3), 3);
    }

    #[test]
    fn push_container_matches_one_at_a_time_pushes() {
        for n in [1usize, 4096, 4097, 30_000] {
            let lows: Vec<u16> = (0..n).map(|i| (i * 2) as u16).collect();
            let mut bulk = RoaringBitmap::new();
            bulk.push_container(5, &lows);
            let mut one = RoaringBitmap::new();
            for &lo in &lows {
                one.push_ascending(5 << 16 | lo as u32);
            }
            assert_eq!(bulk, one, "{n} values");
        }
    }

    fn model_check(values: &[u32], other: &[u32]) {
        let a: RoaringBitmap = values.iter().copied().collect();
        let b: RoaringBitmap = other.iter().copied().collect();
        let sa: BTreeSet<u32> = values.iter().copied().collect();
        let sb: BTreeSet<u32> = other.iter().copied().collect();
        assert_eq!(a.to_vec(), sa.iter().copied().collect::<Vec<_>>());
        assert_eq!(
            a.and(&b).to_vec(),
            sa.intersection(&sb).copied().collect::<Vec<_>>()
        );
        assert_eq!(
            a.or(&b).to_vec(),
            sa.union(&sb).copied().collect::<Vec<_>>()
        );
        assert_eq!(
            a.and_not(&b).to_vec(),
            sa.difference(&sb).copied().collect::<Vec<_>>()
        );
        assert_eq!(a.len(), sa.len() as u64);
    }

    proptest::proptest! {
        #[test]
        fn prop_matches_btreeset_model(
            values in proptest::collection::vec(0u32..200_000, 0..500),
            other in proptest::collection::vec(0u32..200_000, 0..500),
        ) {
            model_check(&values, &other);
        }

        #[test]
        fn prop_insert_remove_model(ops in proptest::collection::vec((0u32..100_000, proptest::bool::ANY), 0..300)) {
            let mut bm = RoaringBitmap::new();
            let mut model = BTreeSet::new();
            for (v, is_insert) in ops {
                if is_insert {
                    proptest::prop_assert_eq!(bm.insert(v), model.insert(v));
                } else {
                    proptest::prop_assert_eq!(bm.remove(v), model.remove(&v));
                }
            }
            proptest::prop_assert_eq!(bm.to_vec(), model.into_iter().collect::<Vec<_>>());
        }

        /// Optimizing only from the last written key on, after
        /// ascending appends into an optimized bitmap, gives exactly the
        /// containers (kinds included) of a whole-bitmap pass.
        #[test]
        fn prop_tail_optimize_matches_whole_optimize(
            base in proptest::collection::vec(0u32..300_000, 0..3000),
            step in 1u32..40,
            extra in 0u32..20_000,
        ) {
            let mut tail: RoaringBitmap = base.iter().copied().collect();
            tail.run_optimize();
            let start = tail.max().map_or(0, |m| m + 1);
            let key = (start >> 16) as u16;
            let mut whole = tail.clone();
            for v in (start..start + extra).step_by(step as usize) {
                tail.push_ascending(v);
                whole.push_ascending(v);
            }
            tail.run_optimize_from(key);
            whole.run_optimize();
            proptest::prop_assert_eq!(tail, whole);
        }

        #[test]
        fn prop_run_optimize_is_semantically_invisible(
            values in proptest::collection::vec(0u32..50_000, 0..1000),
        ) {
            let mut bm: RoaringBitmap = values.iter().copied().collect();
            let before = bm.to_vec();
            bm.run_optimize();
            proptest::prop_assert_eq!(bm.to_vec(), before);
        }
    }
}
