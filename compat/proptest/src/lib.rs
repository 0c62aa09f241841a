//! Hermetic, in-tree property-testing engine (see `compat/` rationale in
//! `compat/bytes`).
//!
//! Exposes the subset of the `proptest` crate API the SIA test suites use:
//! the [`Strategy`] trait with `prop_map`/`prop_flat_map`/`prop_recursive`,
//! range/tuple/`Just`/collection/sample strategies, the `proptest!`,
//! `prop_oneof!`, `prop_assert!`, and `prop_assert_eq!` macros, and
//! [`ProptestConfig`]. Generation is deterministic per (test name, case
//! index), so failures reproduce; there is no shrinking — failing inputs are
//! printed instead.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::sync::Arc;

// ---- RNG --------------------------------------------------------------------

/// Deterministic generator (SplitMix64) seeded per test case.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeds from a test identifier and case index, so every case is
    /// reproducible without stored seeds.
    pub fn for_case(test_id: &str, case: u64) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_id.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        TestRng(h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---- failure type -----------------------------------------------------------

/// A failed property assertion (returned by `prop_assert!` and friends).
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Builds a failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

// ---- config -----------------------------------------------------------------

/// Runner configuration (only the knobs the workspace uses).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

// ---- Strategy trait ---------------------------------------------------------

/// A generator of values of type `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then samples from the strategy `f` builds from it.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases the strategy (cheaply clonable).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy {
            inner: Arc::new(move |rng: &mut TestRng| self.sample(rng)),
        }
    }

    /// Recursive strategies: `recurse` receives the strategy built so far and
    /// wraps it one level deeper, up to `depth` levels. The `_desired_size`
    /// and `_expected_branch` hints of upstream proptest are accepted and
    /// ignored.
    fn prop_recursive<F, S>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S + 'static,
        S: Strategy<Value = Self::Value> + 'static,
    {
        let leaf = self.boxed();
        let mut cur = leaf.clone();
        for _ in 0..depth {
            // Bias toward leaves so sizes stay bounded.
            let deeper = recurse(cur).boxed();
            let l = leaf.clone();
            cur = BoxedStrategy {
                inner: Arc::new(move |rng: &mut TestRng| {
                    if rng.below(3) == 0 {
                        l.sample(rng)
                    } else {
                        deeper.sample(rng)
                    }
                }),
            };
        }
        cur
    }
}

/// A type-erased, clonable strategy.
pub struct BoxedStrategy<T> {
    inner: Arc<dyn Fn(&mut TestRng) -> T>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.inner)(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed strategies (built by `prop_oneof!`).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union; panics if `options` is empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].sample(rng)
    }
}

// ---- primitive strategies ---------------------------------------------------

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo + 1) as u64;
                (lo + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                self.start + (rng.unit_f64() as $t) * (self.end - self.start)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                self.start() + (rng.unit_f64() as $t) * (self.end() - self.start())
            }
        }
    )*};
}

float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($n:tt $S:ident),+))*) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H, 8 I)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H, 8 I, 9 J)
}

/// String strategy from a restricted regex pattern: a sequence of `[class]`
/// segments, each with an optional `{lo,hi}` repeat (default exactly one),
/// with ranges and `\n`/`\t`/`\\`/`\]` escapes inside the class. This covers
/// the patterns used by the workspace's fuzz tests (e.g.
/// `"[a-z_][a-z0-9_]{0,10}"`); anything else panics with a clear message.
impl Strategy for &'static str {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        let segments = parse_pattern(self)
            .unwrap_or_else(|| panic!("unsupported regex strategy pattern: {self:?}"));
        let mut out = String::new();
        for (chars, lo, hi) in &segments {
            let len = lo + rng.below((hi - lo + 1) as u64) as usize;
            for _ in 0..len {
                out.push(chars[rng.below(chars.len() as u64) as usize]);
            }
        }
        out
    }
}

fn parse_pattern(pat: &str) -> Option<Vec<(Vec<char>, usize, usize)>> {
    let mut segments = Vec::new();
    let mut rest = pat;
    while !rest.is_empty() {
        let (class, tail) = if let Some(r) = rest.strip_prefix('.') {
            // `.`: any char except newline — approximated as printable ASCII.
            (" -~", r)
        } else {
            let r = rest.strip_prefix('[')?;
            // Find the closing `]`, honoring `\]` escapes.
            let mut close = None;
            let mut escaped = false;
            for (i, c) in r.char_indices() {
                match (escaped, c) {
                    (true, _) => escaped = false,
                    (false, '\\') => escaped = true,
                    (false, ']') => {
                        close = Some(i);
                        break;
                    }
                    _ => {}
                }
            }
            let close = close?;
            (&r[..close], &r[close + 1..])
        };
        let (lo, hi, tail) = if let Some(t) = tail.strip_prefix('{') {
            let end = t.find('}')?;
            let (lo, hi) = t[..end].split_once(',')?;
            (
                lo.trim().parse().ok()?,
                hi.trim().parse().ok()?,
                &t[end + 1..],
            )
        } else {
            (1, 1, tail)
        };
        segments.push((parse_class(class)?, lo, hi));
        rest = tail;
    }
    if segments.is_empty() {
        return None;
    }
    Some(segments)
}

fn parse_class(class: &str) -> Option<Vec<char>> {
    let mut chars: Vec<char> = Vec::new();
    let cs: Vec<char> = class.chars().collect();
    let mut i = 0;
    while i < cs.len() {
        let c = if cs[i] == '\\' && i + 1 < cs.len() {
            i += 1;
            match cs[i] {
                'n' => '\n',
                't' => '\t',
                other => other,
            }
        } else {
            cs[i]
        };
        // Range `a-z` (a `-` not at the ends).
        if i + 2 < cs.len() && cs[i + 1] == '-' {
            let end = cs[i + 2];
            for u in c as u32..=end as u32 {
                chars.push(char::from_u32(u)?);
            }
            i += 3;
        } else {
            chars.push(c);
            i += 1;
        }
    }
    if chars.is_empty() {
        return None;
    }
    Some(chars)
}

// ---- any<T> -----------------------------------------------------------------

/// Full-range strategy for `T` (see [`any`]).
pub struct AnyOf<T>(PhantomData<T>);

/// Types with a canonical full-range strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary_with(rng: &mut TestRng) -> Self;
}

/// `any::<T>()`: the full-range strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyOf<T> {
    AnyOf(PhantomData)
}

impl<T: Arbitrary> Strategy for AnyOf<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary_with(rng)
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary_with(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary_with(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary_with(rng: &mut TestRng) -> f64 {
        // Finite, sign-balanced values spanning many magnitudes.
        let m = rng.unit_f64() * 2.0 - 1.0;
        let e = rng.below(61) as i32 - 30;
        m * (2f64).powi(e)
    }
}

// ---- prop:: modules ---------------------------------------------------------

/// Submodules mirroring `proptest::prop`'s layout (`prop::collection`, …).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::*;

        /// Size bounds for generated collections.
        #[derive(Debug, Clone)]
        pub struct SizeRange {
            lo: usize,
            hi: usize, // inclusive
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                SizeRange {
                    lo: r.start,
                    hi: r.end - 1,
                }
            }
        }

        impl From<RangeInclusive<usize>> for SizeRange {
            fn from(r: RangeInclusive<usize>) -> Self {
                SizeRange {
                    lo: *r.start(),
                    hi: *r.end(),
                }
            }
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi: n }
            }
        }

        /// Strategy for vectors of `elem` with length in `size`.
        pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                elem,
                size: size.into(),
            }
        }

        /// See [`vec()`].
        pub struct VecStrategy<S> {
            elem: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.hi - self.size.lo + 1) as u64;
                let n = self.size.lo + rng.below(span) as usize;
                (0..n).map(|_| self.elem.sample(rng)).collect()
            }
        }
    }

    /// Sampling from explicit value lists.
    pub mod sample {
        use super::super::*;

        /// Uniformly selects one of `items`.
        pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
            assert!(!items.is_empty(), "select from empty list");
            Select { items }
        }

        /// See [`select`].
        pub struct Select<T: Clone> {
            items: Vec<T>,
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;
            fn sample(&self, rng: &mut TestRng) -> T {
                self.items[rng.below(self.items.len() as u64) as usize].clone()
            }
        }
    }

    /// Boolean strategies.
    pub mod bool {
        use super::super::*;

        /// The uniform boolean strategy (`prop::bool::ANY`).
        #[derive(Debug, Clone, Copy)]
        pub struct Any;

        /// Uniform `true`/`false`.
        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = bool;
            fn sample(&self, rng: &mut TestRng) -> bool {
                rng.next_u64() & 1 == 1
            }
        }
    }
}

// ---- macros -----------------------------------------------------------------

/// Declares property tests. Mirrors upstream `proptest!` syntax:
/// an optional `#![proptest_config(..)]`, then `#[test] fn name(pat in
/// strategy, ..) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { (<$crate::ProptestConfig as ::std::default::Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases as u64 {
                let mut __rng = $crate::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $(let $pat = $crate::Strategy::sample(&($strat), &mut __rng);)+
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!("property `{}` failed at case {case}: {e}", stringify!($name));
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Uniform choice among strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ( $( $strat:expr ),+ $(,)? ) => {
        $crate::Union::new(vec![ $( $crate::Strategy::boxed($strat) ),+ ])
    };
}

/// Property assertion: fails the current case (with the generated inputs
/// reported) instead of panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Property equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($l:expr, $r:expr) => {{
        let (l, r) = (&$l, &$r);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($l), stringify!($r), l, r
        );
    }};
    ($l:expr, $r:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$l, &$r);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// The common imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestCaseError, TestRng, Union,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_case("ranges", 0);
        for _ in 0..1000 {
            let v = (3usize..17).sample(&mut rng);
            assert!((3..17).contains(&v));
            let f = (-2.0..2.0f64).sample(&mut rng);
            assert!((-2.0..2.0).contains(&f));
            let i = (1i64..=4).sample(&mut rng);
            assert!((1..=4).contains(&i));
        }
    }

    #[test]
    fn vec_and_tuple_strategies() {
        let mut rng = TestRng::for_case("vec", 1);
        let s = prop::collection::vec((1usize..5, prop::bool::ANY), 2..6);
        for _ in 0..100 {
            let v = s.sample(&mut rng);
            assert!(v.len() >= 2 && v.len() < 6);
            for (n, _b) in v {
                assert!((1..5).contains(&n));
            }
        }
    }

    #[test]
    fn regex_class_strategy() {
        let mut rng = TestRng::for_case("re", 2);
        let s = "[ -~\n]{0,300}";
        for _ in 0..50 {
            let text = Strategy::sample(&s, &mut rng);
            assert!(text.len() <= 300);
            assert!(text.chars().all(|c| c == '\n' || (' '..='~').contains(&c)));
        }
        let ident = "[a-z_][a-z0-9_]{0,10}";
        for _ in 0..50 {
            let text = Strategy::sample(&ident, &mut rng);
            assert!(!text.is_empty() && text.len() <= 11);
            let first = text.chars().next().unwrap();
            assert!(first == '_' || first.is_ascii_lowercase());
        }
    }

    #[test]
    fn oneof_and_recursive() {
        #[derive(Debug, Clone, PartialEq)]
        enum E {
            Leaf(i64),
            Pair(Box<E>, Box<E>),
        }
        fn depth(e: &E) -> u32 {
            match e {
                E::Leaf(_) => 0,
                E::Pair(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let leaf = (0i64..10).prop_map(E::Leaf);
        let s = leaf.prop_recursive(3, 16, 2, |inner| {
            (inner.clone(), inner).prop_map(|(a, b)| E::Pair(Box::new(a), Box::new(b)))
        });
        let mut rng = TestRng::for_case("rec", 3);
        let mut saw_pair = false;
        for _ in 0..200 {
            let e = s.sample(&mut rng);
            assert!(depth(&e) <= 3);
            saw_pair |= matches!(e, E::Pair(..));
        }
        assert!(saw_pair);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: patterns, multiple args, trailing comma.
        #[test]
        fn macro_roundtrip((a, b) in (0u32..10, 0u32..10), c in 5i64..6,) {
            prop_assert!(a < 10 && b < 10);
            prop_assert_eq!(c, 5);
        }
    }
}
