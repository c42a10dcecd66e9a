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

use std::collections::BTreeMap;

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

/// The ownership table.
#[derive(Debug, Default)]
pub struct OwnershipTable {
    entries: BTreeMap<u64, PageOwner>,
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
        if let Some(&existing) = self.entries.get(&ppn.0) {
            return Err(OwnershipError::AlreadyOwned {
                ppn,
                owner: existing,
            });
        }
        self.entries.insert(ppn.0, owner);
        Ok(())
    }

    /// Releases a page owned by `owner`.
    ///
    /// # Errors
    ///
    /// [`OwnershipError::NotOwned`] / [`OwnershipError::WrongOwner`] when the
    /// record does not match.
    pub fn release(&mut self, ppn: Ppn, owner: PageOwner) -> Result<(), OwnershipError> {
        match self.entries.get(&ppn.0) {
            None => Err(OwnershipError::NotOwned { ppn }),
            Some(&o) if o != owner => Err(OwnershipError::WrongOwner { ppn }),
            Some(_) => {
                self.entries.remove(&ppn.0);
                Ok(())
            }
        }
    }

    /// Looks up the owner of a page.
    pub(crate) fn owner(&self, ppn: Ppn) -> Option<PageOwner> {
        self.entries.get(&ppn.0).copied()
    }

    /// All pages owned by a given enclave (used by EDESTROY reclamation).
    pub fn pages_of(&self, enclave: EnclaveId) -> Vec<Ppn> {
        self.entries
            .iter()
            .filter(|(_, o)| matches!(o, PageOwner::Enclave(e) if *e == enclave))
            .map(|(&p, _)| Ppn(p))
            .collect()
    }

    /// Iterates all `(frame, owner)` entries (feeds the consistency audit).
    pub fn iter(&self) -> impl Iterator<Item = (Ppn, PageOwner)> + '_ {
        self.entries.iter().map(|(&p, &o)| (Ppn(p), o))
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
        assert_eq!(table.entries.len(), 8);
    }
}
