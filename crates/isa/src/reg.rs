//! Architectural registers.
//!
//! The ISA models an x86-64-flavoured integer register file: fourteen
//! general-purpose registers (`R0`–`R13`), the stack pointer [`Reg::RSP`],
//! the frame pointer [`Reg::RBP`], and the flags register [`Reg::RFLAGS`].
//!
//! Protection (the `PROT` prefix, see [`crate::Inst`]) is tracked at *full
//! register* granularity: sub-register writes inherit the protection rules
//! of their containing register (paper §IV-B1).

use core::fmt;

/// An architectural register identifier.
///
/// `Reg` is a dense index in `0..Reg::COUNT`, suitable for direct use as an
/// array index (e.g. in rename maps or dataflow bitsets).
///
/// # Examples
///
/// ```
/// use protean_isa::Reg;
///
/// assert_eq!(Reg::R0.index(), 0);
/// assert_eq!(Reg::COUNT, 17);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Reg(u8);

impl Reg {
    /// Number of architectural registers, including `RSP`, `RBP`, and
    /// `RFLAGS`.
    pub const COUNT: usize = 17;

    /// Number of general-purpose registers (`R0`–`R13`).
    pub const GPR_COUNT: usize = 14;

    /// General-purpose register `r0`.
    pub const R0: Reg = Reg(0);
    /// General-purpose register `r1`.
    pub const R1: Reg = Reg(1);
    /// General-purpose register `r2`.
    pub const R2: Reg = Reg(2);
    /// General-purpose register `r3`.
    pub const R3: Reg = Reg(3);
    /// General-purpose register `r4`.
    pub const R4: Reg = Reg(4);
    /// General-purpose register `r5`.
    pub const R5: Reg = Reg(5);
    /// General-purpose register `r6`.
    pub const R6: Reg = Reg(6);
    /// General-purpose register `r7`.
    pub const R7: Reg = Reg(7);
    /// General-purpose register `r8`.
    pub const R8: Reg = Reg(8);
    /// General-purpose register `r9`.
    pub const R9: Reg = Reg(9);
    /// General-purpose register `r10`.
    pub const R10: Reg = Reg(10);
    /// General-purpose register `r11`.
    pub const R11: Reg = Reg(11);
    /// General-purpose register `r12`.
    pub const R12: Reg = Reg(12);
    /// General-purpose register `r13`.
    pub const R13: Reg = Reg(13);
    /// The stack pointer. ProtCC-UNR treats it as never-secret (§V-A4).
    pub const RSP: Reg = Reg(14);
    /// The frame pointer (computed from `RSP`, so also never-secret).
    pub const RBP: Reg = Reg(15);
    /// The flags register, implicitly written by ALU/compare instructions
    /// and read by conditional branches and conditional moves.
    pub const RFLAGS: Reg = Reg(16);

    /// Creates a register from its dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= Reg::COUNT`.
    ///
    /// # Examples
    ///
    /// ```
    /// use protean_isa::Reg;
    /// assert_eq!(Reg::new(14), Reg::RSP);
    /// ```
    #[inline]
    pub fn new(index: usize) -> Reg {
        assert!(index < Reg::COUNT, "register index {index} out of range");
        Reg(index as u8)
    }

    /// Creates a general-purpose register `R{index}`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= Reg::GPR_COUNT`.
    #[inline]
    pub fn gpr(index: usize) -> Reg {
        assert!(index < Reg::GPR_COUNT, "GPR index {index} out of range");
        Reg(index as u8)
    }

    /// The dense index of this register in `0..Reg::COUNT`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over all architectural registers in index order.
    ///
    /// # Examples
    ///
    /// ```
    /// use protean_isa::Reg;
    /// assert_eq!(Reg::all().count(), Reg::COUNT);
    /// ```
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..Reg::COUNT).map(|i| Reg(i as u8))
    }

    /// The canonical lowercase name (`r0`…`r13`, `rsp`, `rbp`, `rflags`).
    pub fn name(self) -> &'static str {
        const NAMES: [&str; Reg::COUNT] = [
            "r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11", "r12", "r13",
            "rsp", "rbp", "rflags",
        ];
        NAMES[self.index()]
    }

    /// Parses a register name (case-insensitive).
    ///
    /// Returns `None` for unknown names.
    ///
    /// # Examples
    ///
    /// ```
    /// use protean_isa::Reg;
    /// assert_eq!(Reg::parse("RSP"), Some(Reg::RSP));
    /// assert_eq!(Reg::parse("r7"), Some(Reg::R7));
    /// assert_eq!(Reg::parse("xmm0"), None);
    /// ```
    pub fn parse(name: &str) -> Option<Reg> {
        let lower = name.to_ascii_lowercase();
        Reg::all().find(|r| r.name() == lower)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A fixed-size set of architectural registers, backed by a bitmask.
///
/// Used pervasively by the ProtCC dataflow analyses and by the defense
/// policies to describe register-level protection sets.
///
/// # Examples
///
/// ```
/// use protean_isa::{Reg, RegSet};
///
/// let mut set = RegSet::new();
/// set.insert(Reg::R1);
/// set.insert(Reg::RSP);
/// assert!(set.contains(Reg::R1));
/// assert_eq!(set.len(), 2);
///
/// let all = RegSet::all();
/// assert_eq!(all.len(), Reg::COUNT);
/// assert!(all.is_superset(set));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RegSet(u32);

impl RegSet {
    /// Creates an empty set.
    #[inline]
    pub fn new() -> RegSet {
        RegSet(0)
    }

    /// Creates the set containing every architectural register.
    #[inline]
    pub fn all() -> RegSet {
        RegSet((1u32 << Reg::COUNT) - 1)
    }

    /// Creates a set from an iterator of registers.
    pub fn from_regs<I: IntoIterator<Item = Reg>>(regs: I) -> RegSet {
        let mut set = RegSet::new();
        for r in regs {
            set.insert(r);
        }
        set
    }

    /// Inserts a register; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, reg: Reg) -> bool {
        let bit = 1u32 << reg.index();
        let fresh = self.0 & bit == 0;
        self.0 |= bit;
        fresh
    }

    /// Removes a register; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, reg: Reg) -> bool {
        let bit = 1u32 << reg.index();
        let present = self.0 & bit != 0;
        self.0 &= !bit;
        present
    }

    /// Returns `true` if the register is in the set.
    #[inline]
    pub fn contains(self, reg: Reg) -> bool {
        self.0 & (1u32 << reg.index()) != 0
    }

    /// Number of registers in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Returns `true` if the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set union.
    #[inline]
    pub fn union(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub fn intersection(self, other: RegSet) -> RegSet {
        RegSet(self.0 & other.0)
    }

    /// Set difference (`self - other`).
    #[inline]
    pub fn difference(self, other: RegSet) -> RegSet {
        RegSet(self.0 & !other.0)
    }

    /// Returns `true` if every register of `other` is in `self`.
    #[inline]
    pub fn is_superset(self, other: RegSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Iterates over the registers in index order.
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        Reg::all().filter(move |r| self.contains(*r))
    }
}

impl FromIterator<Reg> for RegSet {
    fn from_iter<I: IntoIterator<Item = Reg>>(iter: I) -> RegSet {
        RegSet::from_regs(iter)
    }
}

impl Extend<Reg> for RegSet {
    fn extend<I: IntoIterator<Item = Reg>>(&mut self, iter: I) {
        for r in iter {
            self.insert(r);
        }
    }
}

impl fmt::Debug for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_roundtrip_names() {
        for r in Reg::all() {
            assert_eq!(Reg::parse(r.name()), Some(r));
        }
    }

    #[test]
    fn reg_classes() {
        // The GPRs are the first `GPR_COUNT` indices; RSP, RBP and
        // RFLAGS follow them.
        for i in 0..Reg::GPR_COUNT {
            assert_eq!(Reg::gpr(i), Reg::new(i));
        }
        assert_eq!(
            [Reg::RSP, Reg::RBP, Reg::RFLAGS].map(Reg::index),
            [Reg::GPR_COUNT, Reg::GPR_COUNT + 1, Reg::GPR_COUNT + 2]
        );
        assert_eq!(Reg::GPR_COUNT + 3, Reg::COUNT);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_new_out_of_range() {
        let _ = Reg::new(Reg::COUNT);
    }

    #[test]
    fn regset_basic_ops() {
        let mut s = RegSet::new();
        assert!(s.is_empty());
        assert!(s.insert(Reg::R5));
        assert!(!s.insert(Reg::R5));
        assert!(s.contains(Reg::R5));
        assert_eq!(s.len(), 1);
        assert!(s.remove(Reg::R5));
        assert!(!s.remove(Reg::R5));
        assert!(s.is_empty());
    }

    #[test]
    fn regset_algebra() {
        let a = RegSet::from_regs([Reg::R0, Reg::R1, Reg::R2]);
        let b = RegSet::from_regs([Reg::R1, Reg::R2, Reg::R3]);
        assert_eq!(
            a.union(b),
            RegSet::from_regs([Reg::R0, Reg::R1, Reg::R2, Reg::R3])
        );
        assert_eq!(a.intersection(b), RegSet::from_regs([Reg::R1, Reg::R2]));
        assert_eq!(a.difference(b), RegSet::from_regs([Reg::R0]));
        assert!(a.union(b).is_superset(a));
        assert!(!a.is_superset(b));
    }

    #[test]
    fn regset_iter_ordered() {
        let s = RegSet::from_regs([Reg::R9, Reg::R1, Reg::RSP]);
        let v: Vec<Reg> = s.iter().collect();
        assert_eq!(v, vec![Reg::R1, Reg::R9, Reg::RSP]);
    }

    #[test]
    fn regset_all_and_collect() {
        let s: RegSet = Reg::all().collect();
        assert_eq!(s, RegSet::all());
        assert_eq!(s.len(), Reg::COUNT);
    }
}
