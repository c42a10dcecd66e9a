//! The page ownership table (§IV-B, §V-B).
//!
//! "EMS maintains a page ownership table in private memory. Each entry
//! records the unique enclaveID that owns a specific physical page. Before
//! mapping a physical page to an enclave, EMS looks up and verifies the page
//! ownership… EMS extends page ownership to allow pages to be shared between
//! enclaves or between an enclave and a peripheral."
//!
//! This table lives in EMS private memory, invisible to the CS — in the
//! reproduction it is simply a structure the CS-side API has no handle to.
//!
//! Like SGX's EPCM, the table is an array indexed by frame: one word per
//! PPN, so a claim, a release or a lookup is one index, and a walk visits
//! the frames in PPN order.

use crate::addr::Ppn;

/// Identifier of an enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EnclaveId(pub u64);

/// Identifier of a shared-memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShmId(pub u64);

/// Who owns a physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageOwner {
    /// Private page of one enclave.
    Enclave(EnclaveId),
    /// Page of a shared-memory region.
    Shared(ShmId),
    /// Page used by EMS itself (enclave page tables, control structures).
    EmsPrivate,
}

/// Errors raised by ownership bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OwnershipError {
    /// The page is already owned and cannot be claimed again.
    AlreadyOwned {
        /// The page in question.
        ppn: Ppn,
        /// Its current owner.
        owner: PageOwner,
    },
    /// The page has no owner record.
    NotOwned {
        /// The page in question.
        ppn: Ppn,
    },
    /// The caller is not the recorded owner.
    WrongOwner {
        /// The page in question.
        ppn: Ppn,
    },
}

impl core::fmt::Display for OwnershipError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OwnershipError::AlreadyOwned { ppn, owner } => {
                write!(f, "page {:#x} already owned by {owner:?}", ppn.0)
            }
            OwnershipError::NotOwned { ppn } => write!(f, "page {:#x} has no owner", ppn.0),
            OwnershipError::WrongOwner { ppn } => {
                write!(f, "caller does not own page {:#x}", ppn.0)
            }
        }
    }
}

impl std::error::Error for OwnershipError {}

/// Owner tag in the low bits of a table word; the id sits above it.
const TAG_BITS: u32 = 2;
const TAG_EMS: u64 = 1;
const TAG_ENCLAVE: u64 = 2;
const TAG_SHARED: u64 = 3;

impl PageOwner {
    /// The owner as a nonzero table word.
    ///
    /// # Panics
    ///
    /// Panics on an id of 2^62 or more, which has no room beside the tag
    /// (EMS issues ids counting up from 1).
    fn word(self) -> u64 {
        let (id, tag) = match self {
            PageOwner::EmsPrivate => (0, TAG_EMS),
            PageOwner::Enclave(EnclaveId(id)) => (id, TAG_ENCLAVE),
            PageOwner::Shared(ShmId(id)) => (id, TAG_SHARED),
        };
        assert!(id >> (64 - TAG_BITS) == 0, "owner id {id:#x} too large");
        id << TAG_BITS | tag
    }

    /// The owner a table word records; `None` for 0, an unowned frame.
    fn from_word(word: u64) -> Option<PageOwner> {
        let id = word >> TAG_BITS;
        match word & ((1 << TAG_BITS) - 1) {
            TAG_EMS => Some(PageOwner::EmsPrivate),
            TAG_ENCLAVE => Some(PageOwner::Enclave(EnclaveId(id))),
            TAG_SHARED => Some(PageOwner::Shared(ShmId(id))),
            _ => None,
        }
    }
}

/// The ownership table.
#[derive(Debug, Default)]
pub struct OwnershipTable {
    /// Owner word by PPN, 0 for unowned. It grows to the highest frame
    /// ever claimed, so it is no larger than the frames EMS handed out.
    words: Vec<u64>,
    /// Nonzero words.
    owned: u64,
}

impl OwnershipTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        OwnershipTable::default()
    }

    /// Claims an unowned page for `owner`.
    ///
    /// # Errors
    ///
    /// [`OwnershipError::AlreadyOwned`] if the page has an owner — the check
    /// that stops one enclave's page from being mapped into another (§IV-B).
    pub fn claim(&mut self, ppn: Ppn, owner: PageOwner) -> Result<(), OwnershipError> {
        if let Some(existing) = self.owner(ppn) {
            return Err(OwnershipError::AlreadyOwned {
                ppn,
                owner: existing,
            });
        }
        let word = owner.word();
        let at = ppn.0 as usize;
        if at >= self.words.len() {
            self.words.resize(at + 1, 0);
        }
        self.words[at] = word;
        self.owned += 1;
        Ok(())
    }

    /// Releases a page owned by `owner`.
    ///
    /// # Errors
    ///
    /// [`OwnershipError::NotOwned`] / [`OwnershipError::WrongOwner`] when the
    /// record does not match.
    pub fn release(&mut self, ppn: Ppn, owner: PageOwner) -> Result<(), OwnershipError> {
        match self.owner(ppn) {
            None => Err(OwnershipError::NotOwned { ppn }),
            Some(o) if o != owner => Err(OwnershipError::WrongOwner { ppn }),
            Some(_) => {
                self.words[ppn.0 as usize] = 0;
                self.owned -= 1;
                Ok(())
            }
        }
    }

    /// Looks up the owner of a page.
    pub(crate) fn owner(&self, ppn: Ppn) -> Option<PageOwner> {
        PageOwner::from_word(*self.words.get(ppn.0 as usize)?)
    }

    /// Number of owned pages.
    pub(crate) fn len(&self) -> u64 {
        self.owned
    }

    /// All pages owned by a given enclave, in PPN order (the model
    /// harness's per-enclave frame count).
    pub fn pages_of(&self, enclave: EnclaveId) -> Vec<Ppn> {
        self.iter()
            .filter(|&(_, o)| o == PageOwner::Enclave(enclave))
            .map(|(p, _)| p)
            .collect()
    }

    /// Iterates all `(frame, owner)` entries in PPN order.
    pub fn iter(&self) -> impl Iterator<Item = (Ppn, PageOwner)> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter_map(|(p, &w)| Some((Ppn(p as u64), PageOwner::from_word(w)?)))
    }

    /// Owned frames as a bitset, 64 frames a word: bit `p % 64` of word
    /// `p / 64` is set when frame `p` is owned. It reaches the highest
    /// frame ever claimed.
    pub(crate) fn owned_bits(&self) -> Vec<u64> {
        self.words
            .chunks(64)
            .map(|chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .fold(0, |bits, (i, &w)| bits | u64::from(w != 0) << i)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_release_cycle() {
        let mut table = OwnershipTable::new();
        let e = EnclaveId(1);
        table.claim(Ppn(5), PageOwner::Enclave(e)).unwrap();
        assert_eq!(table.owner(Ppn(5)), Some(PageOwner::Enclave(e)));
        table.release(Ppn(5), PageOwner::Enclave(e)).unwrap();
        assert_eq!(table.owner(Ppn(5)), None);
    }

    #[test]
    fn double_claim_rejected() {
        let mut table = OwnershipTable::new();
        table
            .claim(Ppn(5), PageOwner::Enclave(EnclaveId(1)))
            .unwrap();
        let err = table
            .claim(Ppn(5), PageOwner::Enclave(EnclaveId(2)))
            .unwrap_err();
        assert!(matches!(err, OwnershipError::AlreadyOwned { .. }));
    }

    #[test]
    fn wrong_owner_release_rejected() {
        let mut table = OwnershipTable::new();
        table
            .claim(Ppn(7), PageOwner::Enclave(EnclaveId(1)))
            .unwrap();
        assert!(matches!(
            table.release(Ppn(7), PageOwner::Enclave(EnclaveId(2))),
            Err(OwnershipError::WrongOwner { .. })
        ));
        assert!(matches!(
            table.release(Ppn(8), PageOwner::Enclave(EnclaveId(1))),
            Err(OwnershipError::NotOwned { .. })
        ));
    }

    /// The dense table against a `BTreeMap` model: seeded claims and
    /// releases of all three owner kinds over frames into the hundreds of
    /// thousands, with double claims, wrong-owner and never-owned
    /// releases. Every result, lookup and walk matches, and so does one
    /// enclave's page list per step, each enclave in turn.
    #[test]
    fn dense_table_matches_a_btreemap_model() {
        use std::collections::BTreeMap;
        let mut x = 0x6a09_e667_f3bc_c909u64;
        let mut below = |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        let frames: Vec<Ppn> = (0..48).map(|_| Ppn(below(250_000))).collect();
        let mut table = OwnershipTable::new();
        let mut model: BTreeMap<u64, PageOwner> = BTreeMap::new();
        let mut outcomes = std::collections::BTreeSet::new();
        let kind = |r: &Result<(), OwnershipError>| match r {
            Ok(()) => "ok",
            Err(OwnershipError::AlreadyOwned { .. }) => "already owned",
            Err(OwnershipError::NotOwned { .. }) => "not owned",
            Err(OwnershipError::WrongOwner { .. }) => "wrong owner",
        };
        for step in 0..300u64 {
            let ppn = frames[below(frames.len() as u64) as usize];
            let owner = match below(3) {
                0 => PageOwner::EmsPrivate,
                1 => PageOwner::Enclave(EnclaveId(below(4))),
                _ => PageOwner::Shared(ShmId(below(3) << 40)),
            };
            if below(2) == 0 {
                let expect = match model.get(&ppn.0) {
                    Some(&o) => Err(OwnershipError::AlreadyOwned { ppn, owner: o }),
                    None => {
                        model.insert(ppn.0, owner);
                        Ok(())
                    }
                };
                assert_eq!(table.claim(ppn, owner), expect, "claim at step {step}");
                outcomes.insert(("claim", kind(&expect)));
            } else {
                let expect = match model.get(&ppn.0) {
                    None => Err(OwnershipError::NotOwned { ppn }),
                    Some(&o) if o != owner => Err(OwnershipError::WrongOwner { ppn }),
                    Some(_) => {
                        model.remove(&ppn.0);
                        Ok(())
                    }
                };
                assert_eq!(table.release(ppn, owner), expect, "release at step {step}");
                outcomes.insert(("release", kind(&expect)));
            }
            assert_eq!(table.owner(ppn), model.get(&ppn.0).copied());
            assert_eq!(table.len(), model.len() as u64);
            let walked: Vec<(Ppn, PageOwner)> = table.iter().collect();
            let modelled: Vec<(Ppn, PageOwner)> =
                model.iter().map(|(&p, &o)| (Ppn(p), o)).collect();
            assert_eq!(walked, modelled, "walk at step {step}");
            let e = EnclaveId(step % 4);
            let listed: Vec<Ppn> = model
                .iter()
                .filter(|&(_, &o)| o == PageOwner::Enclave(e))
                .map(|(&p, _)| Ppn(p))
                .collect();
            assert_eq!(table.pages_of(e), listed, "pages of {e:?} at step {step}");
        }
        assert_eq!(outcomes.len(), 5, "outcomes: {outcomes:?}");
        assert!(frames.iter().any(|p| p.0 > 100_000));
        assert!(!model.is_empty(), "the walk ends with frames owned");
    }

    #[test]
    fn owned_bits_mark_exactly_the_owned_frames() {
        let mut table = OwnershipTable::new();
        for p in [0, 5, 63, 64, 200] {
            table.claim(Ppn(p), PageOwner::EmsPrivate).unwrap();
        }
        table.release(Ppn(5), PageOwner::EmsPrivate).unwrap();
        assert_eq!(table.owned_bits(), [1 | 1 << 63, 1, 0, 1 << 8]);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn an_id_without_room_for_the_tag_is_refused() {
        let mut table = OwnershipTable::new();
        let _ = table.claim(Ppn(1), PageOwner::Shared(ShmId(1 << 62)));
    }

    #[test]
    fn enumeration_by_owner() {
        let mut table = OwnershipTable::new();
        for p in 0..5 {
            table
                .claim(Ppn(p), PageOwner::Enclave(EnclaveId(1)))
                .unwrap();
        }
        for p in 5..8 {
            table.claim(Ppn(p), PageOwner::Shared(ShmId(2))).unwrap();
        }
        assert_eq!(table.pages_of(EnclaveId(1)).len(), 5);
        assert_eq!(table.len(), 8);
    }
}
