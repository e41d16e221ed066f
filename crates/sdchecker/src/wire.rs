//! The byte-level rules of checkpoint payloads, and the two traits
//! every checkpointed type implements next to its own definition.
//!
//! A payload is a concatenation of fields, each written by one of five
//! composition rules — there is no other encoding anywhere in a
//! checkpoint section:
//!
//! 1. `u8` / `u32` / `u64` little-endian; `bool` as one byte `0`/`1`;
//!    `f64` as its IEEE-754 bit pattern in a `u64`.
//! 2. Strings and byte strings: `u64` length, then the bytes.
//! 3. `Option<T>`: a `bool`, then `T` when it is `true`.
//! 4. Sequences (`Vec`, slices, arrays, deques, sets, maps in key
//!    order): `u64` length, then the items.
//! 5. Tuples and structs: their fields in order, nothing in between.
//!
//! Decoding is *validating*: every length is checked against the bytes
//! that remain before anything is read, no allocation is sized from a
//! wire length, and [`Dec::finish`] requires the payload to be consumed
//! exactly. Damage is a [`CkptError::Corrupt`], never a panic.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::checkpoint::CkptError;

/// A [`CkptError::Corrupt`] with `msg`.
pub(crate) fn corrupt(msg: impl Into<String>) -> CkptError {
    CkptError::Corrupt(msg.into())
}

/// A type with a place in a checkpoint payload. Implementations live
/// beside the type and destructure it exhaustively, so a new field does
/// not compile until it is given a place in the layout or ignored with
/// a stated reason.
pub(crate) trait Encode {
    /// Append this value's bytes.
    fn encode(&self, e: &mut Enc);
}

/// The inverse of [`Encode`] for types that need nothing but the bytes.
/// Types restored against configuration take it as an argument of an
/// inherent `decode` instead.
pub(crate) trait Decode: Sized {
    /// Read one value, advancing the cursor past it.
    fn decode(d: &mut Dec<'_>) -> Result<Self, CkptError>;
}

/// Append-only byte encoder. Infallible: encoding in-memory state
/// cannot fail, only the eventual write can.
pub(crate) struct Enc {
    /// The bytes written. The checkpoint container frames its sections
    /// in the same buffer.
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    /// The payload `v` encodes to.
    #[cfg(test)]
    pub(crate) fn payload<T: Encode + ?Sized>(v: &T) -> Vec<u8> {
        let mut e = Enc { buf: Vec::new() };
        v.encode(&mut e);
        e.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A byte string (rule 2).
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        b.len().encode(self);
        self.buf.extend_from_slice(b);
    }

    /// A sequence (rule 4) from anything that knows its length.
    pub(crate) fn seq<I>(&mut self, items: I)
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        I::Item: Encode,
    {
        let items = items.into_iter();
        items.len().encode(self);
        for item in items {
            item.encode(self);
        }
    }
}

/// Bounds-checked byte decoder over a payload slice.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// The next `n` bytes, or `Corrupt` when fewer remain.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| corrupt("length overflows the payload"))?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| corrupt("payload truncated"))?;
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CkptError> {
        <[u8; N]>::try_from(self.take(N)?).map_err(|_| corrupt("short read"))
    }

    /// One value of the type the caller names or the context infers.
    pub(crate) fn get<T: Decode>(&mut self) -> Result<T, CkptError> {
        T::decode(self)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    /// A byte string (rule 2), borrowed from the payload.
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let n = self.get()?;
        self.take(n)
    }

    /// A sequence (rule 4) into any collection. Items are decoded one at
    /// a time and the first failure stops the loop, so a hostile length
    /// costs nothing: every item consumes at least one byte of a payload
    /// that is already in memory, and nothing is reserved up front (the
    /// fallible adapter reports a lower size bound of zero).
    pub(crate) fn seq<T: Decode, C: FromIterator<T>>(&mut self) -> Result<C, CkptError> {
        let n: usize = self.get()?;
        (0..n).map(|_| T::decode(self)).collect()
    }

    /// Every section decoder must end exactly at the payload boundary —
    /// trailing bytes mean the writer and reader disagree on shape.
    pub(crate) fn finish(self) -> Result<(), CkptError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(corrupt(format!("{n} trailing bytes after payload"))),
        }
    }
}

// --- Rule 1: fixed-width scalars -----------------------------------------

macro_rules! le_int {
    ($($int:ty),+) => {$(
        impl Encode for $int {
            fn encode(&self, e: &mut Enc) {
                e.buf.extend_from_slice(&self.to_le_bytes());
            }
        }

        impl Decode for $int {
            fn decode(d: &mut Dec<'_>) -> Result<$int, CkptError> {
                Ok(<$int>::from_le_bytes(d.array()?))
            }
        }
    )+};
}
le_int!(u32, u64);

/// Lengths and counts travel as `u64`.
impl Encode for usize {
    fn encode(&self, e: &mut Enc) {
        (*self as u64).encode(e);
    }
}

impl Decode for usize {
    fn decode(d: &mut Dec<'_>) -> Result<usize, CkptError> {
        usize::try_from(d.get::<u64>()?).map_err(|_| corrupt("length exceeds address space"))
    }
}

impl Encode for bool {
    fn encode(&self, e: &mut Enc) {
        e.u8(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(d: &mut Dec<'_>) -> Result<bool, CkptError> {
        match d.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(corrupt(format!("invalid bool discriminant {v}"))),
        }
    }
}

impl Encode for f64 {
    fn encode(&self, e: &mut Enc) {
        self.to_bits().encode(e);
    }
}

impl Decode for f64 {
    fn decode(d: &mut Dec<'_>) -> Result<f64, CkptError> {
        Ok(f64::from_bits(d.get()?))
    }
}

// --- Rule 2: strings -------------------------------------------------------

impl Encode for str {
    fn encode(&self, e: &mut Enc) {
        e.bytes(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, e: &mut Enc) {
        self.as_str().encode(e);
    }
}

impl Decode for String {
    fn decode(d: &mut Dec<'_>) -> Result<String, CkptError> {
        String::from_utf8(d.bytes()?.to_vec()).map_err(|_| corrupt("string is not UTF-8"))
    }
}

// --- Rule 3: options ---------------------------------------------------------

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, e: &mut Enc) {
        self.is_some().encode(e);
        if let Some(v) = self {
            v.encode(e);
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(d: &mut Dec<'_>) -> Result<Option<T>, CkptError> {
        Ok(if d.get()? { Some(d.get()?) } else { None })
    }
}

// --- Rule 4: sequences -------------------------------------------------------

/// `<params> Collection => Item`: written in iteration order, read back
/// through [`Dec::seq`].
macro_rules! seq_codec {
    ($(<$($p:ident $(: $bound:ident)?),+> $c:ty => $item:ty;)+) => {$(
        impl<$($p: Encode),+> Encode for $c {
            fn encode(&self, e: &mut Enc) {
                e.seq(self);
            }
        }

        impl<$($p: Decode $(+ $bound)?),+> Decode for $c {
            fn decode(d: &mut Dec<'_>) -> Result<Self, CkptError> {
                d.seq::<$item, _>()
            }
        }
    )+};
}
seq_codec! {
    <T> Vec<T> => T;
    <T> VecDeque<T> => T;
    <T: Ord> BTreeSet<T> => T;
    <K: Ord, V> BTreeMap<K, V> => (K, V);
}

/// A fixed-width row still carries its length, and the reader holds the
/// writer to it.
impl<T: Encode, const N: usize> Encode for [T; N] {
    fn encode(&self, e: &mut Enc) {
        e.seq(self);
    }
}

impl<T: Decode, const N: usize> Decode for [T; N] {
    fn decode(d: &mut Dec<'_>) -> Result<[T; N], CkptError> {
        d.get::<Vec<T>>()?
            .try_into()
            .map_err(|v: Vec<T>| corrupt(format!("row of width {}, expected {N}", v.len())))
    }
}

// --- Rule 5: products ----------------------------------------------------------

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, e: &mut Enc) {
        (**self).encode(e);
    }
}

/// Both directions of a struct whose checkpoint is every one of its
/// fields, in the order listed. The one list drives the exhaustive
/// destructure on the way out and the struct literal on the way in, so
/// the two cannot disagree, and a new field compiles in neither until
/// it is listed. (A struct that leaves fields out writes its impls by
/// hand, naming each omission and why.)
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Encode for $ty {
            fn encode(&self, e: &mut $crate::wire::Enc) {
                let $ty { $($field),+ } = self;
                $($crate::wire::Encode::encode($field, e);)+
            }
        }

        impl $crate::wire::Decode for $ty {
            fn decode(
                d: &mut $crate::wire::Dec<'_>,
            ) -> Result<$ty, $crate::checkpoint::CkptError> {
                Ok($ty { $($field: d.get()?),+ })
            }
        }
    };
}
pub(crate) use wire_struct;

macro_rules! tuple_codec {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Encode),+> Encode for ($($t,)+) {
            fn encode(&self, e: &mut Enc) {
                $(self.$i.encode(e);)+
            }
        }

        impl<$($t: Decode),+> Decode for ($($t,)+) {
            fn decode(d: &mut Dec<'_>) -> Result<Self, CkptError> {
                Ok(($(d.get::<$t>()?,)+))
            }
        }
    };
}

tuple_codec!(A 0, B 1);
tuple_codec!(A 0, B 1, C 2);
tuple_codec!(A 0, B 1, C 2, D 3);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_round_trips() {
        type Row = (u32, Option<String>, Vec<(u64, bool)>, f64);
        let row: Row = (
            0xDEAD_BEEF,
            Some("hello".to_string()),
            vec![(u64::MAX, true), (0, false)],
            -1.5,
        );
        let map: BTreeMap<String, [Option<u64>; 2]> =
            BTreeMap::from([("a".to_string(), [None, Some(42)])]);
        let bytes = Enc::payload(&(&row, &map, None::<u64>));
        let mut d = Dec::new(&bytes);
        assert_eq!(d.get::<Row>().unwrap(), row);
        assert_eq!(d.get::<BTreeMap<String, [Option<u64>; 2]>>().unwrap(), map);
        assert_eq!(d.get::<Option<u64>>().unwrap(), None);
        d.finish().unwrap();
    }

    #[test]
    fn layout_is_the_documented_one() {
        let bytes = Enc::payload(&("ab", Some(7u32), vec![true]));
        let want: &[u8] = &[
            2, 0, 0, 0, 0, 0, 0, 0, b'a', b'b', // string: u64 length + bytes
            1, 7, 0, 0, 0, // option: bool + value
            1, 0, 0, 0, 0, 0, 0, 0, 1, // sequence: u64 length + items
        ];
        assert_eq!(bytes, want);
    }

    #[test]
    fn decoder_rejects_damage_instead_of_panicking() {
        assert!(Dec::new(&[1, 0, 0]).get::<u32>().is_err());
        assert!(Dec::new(&[2]).get::<bool>().is_err());
        assert!(Dec::new(&[0]).finish().is_err(), "trailing garbage");
        let width = Enc::payload(&vec![1u64, 2, 3]);
        assert!(Dec::new(&width).get::<[u64; 2]>().is_err());
    }

    /// A wire length is a claim, not an allocation size: one that runs
    /// past the payload — by a byte or by the whole address space — is
    /// `Corrupt` for every length-prefixed rule.
    #[test]
    fn hostile_lengths_are_corrupt_not_allocations() {
        for claimed in [u64::MAX, 1 << 40, 3] {
            let mut bytes = Enc::payload(&claimed);
            bytes.extend_from_slice(&[0, 0]); // two bytes of payload follow
            let is_corrupt = |r: Result<(), CkptError>| matches!(r, Err(CkptError::Corrupt(_)));
            assert!(is_corrupt(Dec::new(&bytes).bytes().map(drop)));
            assert!(is_corrupt(Dec::new(&bytes).get::<String>().map(drop)));
            assert!(is_corrupt(Dec::new(&bytes).get::<Vec<bool>>().map(drop)));
            assert!(is_corrupt(Dec::new(&bytes).get::<Vec<u64>>().map(drop)));
            assert!(is_corrupt(
                Dec::new(&bytes).get::<VecDeque<bool>>().map(drop)
            ));
            assert!(is_corrupt(
                Dec::new(&bytes).get::<BTreeMap<bool, bool>>().map(drop)
            ));
        }
        // Exactly at the boundary is fine.
        let mut bytes = Enc::payload(&2u64);
        bytes.extend_from_slice(&[0, 1]);
        assert_eq!(Dec::new(&bytes).get::<Vec<bool>>().unwrap(), [false, true]);
    }
}
