//! Primitive requests and responses, and Table II's privilege map.

use hypertee_crypto::fnv;
use hypertee_mem::ownership::EnclaveId;

/// CS privilege level of a primitive caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Privilege {
    /// User mode (applications, enclaves).
    User,
    /// Supervisor mode (the CS operating system).
    Os,
    /// Machine mode (EMCall firmware itself).
    Machine,
}

/// The sixteen enclave primitives of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// Create an enclave.
    Ecreate,
    /// Load codes and data into an enclave.
    Eadd,
    /// Start executing an enclave.
    Eenter,
    /// Resume enclave execution.
    Eresume,
    /// Exit enclave execution.
    Eexit,
    /// Destroy an enclave.
    Edestroy,
    /// Allocate enclave memory.
    Ealloc,
    /// Release enclave memory.
    Efree,
    /// Swap enclave memory.
    Ewb,
    /// Apply shared memory from EMS.
    Eshmget,
    /// Attach shared memory to enclaves.
    Eshmat,
    /// Detach enclave shared memory.
    Eshmdt,
    /// Share memory with an enclave.
    Eshmshr,
    /// Destroy enclave shared memory.
    Eshmdes,
    /// Measure code and data of an enclave.
    Emeas,
    /// Sign enclave and platform.
    Eattest,
}

impl Primitive {
    /// The privilege level Table II requires for this primitive. EMCall
    /// "checks the current privilege register during primitive invocation
    /// and blocks any cross-privilege request" (§III-B).
    ///
    /// (Table II's Priv column in the paper text is garbled for the
    /// lifecycle rows; the assignment below follows the obvious semantics:
    /// only EEXIT originates from the enclave itself.)
    pub fn required_privilege(&self) -> Privilege {
        match self {
            Primitive::Ecreate
            | Primitive::Eadd
            | Primitive::Eenter
            | Primitive::Eresume
            | Primitive::Edestroy
            | Primitive::Ewb
            | Primitive::Emeas => Privilege::Os,
            Primitive::Eexit
            | Primitive::Ealloc
            | Primitive::Efree
            | Primitive::Eshmget
            | Primitive::Eshmat
            | Primitive::Eshmdt
            | Primitive::Eshmshr
            | Primitive::Eshmdes
            | Primitive::Eattest => Privilege::User,
        }
    }

    /// All sixteen primitives (handy for exhaustive tests).
    pub fn all() -> [Primitive; 16] {
        [
            Primitive::Ecreate,
            Primitive::Eadd,
            Primitive::Eenter,
            Primitive::Eresume,
            Primitive::Eexit,
            Primitive::Edestroy,
            Primitive::Ealloc,
            Primitive::Efree,
            Primitive::Ewb,
            Primitive::Eshmget,
            Primitive::Eshmat,
            Primitive::Eshmdt,
            Primitive::Eshmshr,
            Primitive::Eshmdes,
            Primitive::Emeas,
            Primitive::Eattest,
        ]
    }
}

/// Identity EMCall stamps into every request (§III-B: "EMCall encapsulates
/// the current enclave identification (enclaveID) as an argument. In this
/// way, attackers cannot impersonate other enclaves").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallerIdentity {
    /// Privilege level EMCall read from the privilege register.
    pub privilege: Privilege,
    /// The enclave currently executing on the calling hart, if any.
    pub enclave: Option<EnclaveId>,
}

/// A primitive request packet as transmitted through the mailbox.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Unique identification binding this request to its response.
    pub req_id: u64,
    /// Requested primitive.
    pub primitive: Primitive,
    /// Caller identity stamped by EMCall.
    pub caller: CallerIdentity,
    /// Scalar arguments (sizes, addresses, IDs — sanity-checked by EMS).
    pub args: Vec<u64>,
    /// Bulk payload (e.g. EADD image chunk descriptors). Enclave private
    /// data is never carried here (§III-C).
    pub payload: Vec<u8>,
}

/// Response status codes from EMS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The primitive succeeded.
    Ok,
    /// Arguments failed the EMS sanity check.
    InvalidArgument,
    /// The caller's privilege did not match Table II.
    PrivilegeMismatch,
    /// The caller does not own / may not touch the target object.
    AccessDenied,
    /// Out of resources (frames, KeyIDs, pool).
    Exhausted,
    /// The referenced object does not exist.
    NotFound,
    /// The object is in the wrong life-cycle state for this primitive
    /// (e.g. entering an unmeasured enclave, or any primitive other than
    /// EDESTROY on a poisoned enclave).
    BadState,
    /// A memory-subsystem fault surfaced while executing the primitive
    /// (page fault, bitmap violation, integrity violation, bus error).
    MemFault,
    /// The primitive was aborted mid-flight and its partial effects were
    /// rolled back; the caller may retry the identical request.
    Aborted,
}

impl Status {
    /// Stable numeric code (wire encoding; feeds the response checksum).
    pub fn code(self) -> u64 {
        match self {
            Status::Ok => 0,
            Status::InvalidArgument => 1,
            Status::PrivilegeMismatch => 2,
            Status::AccessDenied => 3,
            Status::Exhausted => 4,
            Status::NotFound => 5,
            Status::BadState => 6,
            Status::MemFault => 7,
            Status::Aborted => 8,
        }
    }
}

/// A primitive response packet.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Matches [`Request::req_id`].
    pub req_id: u64,
    /// Outcome.
    pub status: Status,
    /// Scalar return values.
    pub vals: Vec<u64>,
    /// Bulk return data (e.g. attestation quotes, sealed blobs).
    pub payload: Vec<u8>,
    /// Integrity checksum over the other fields, sealed at construction.
    /// A packet corrupted on the fabric fails [`Response::intact`] and is
    /// discarded by the mailbox like a lost response (the retry path
    /// recovers it).
    pub(crate) crc: u64,
}

impl Response {
    /// Convenience constructor for success.
    pub fn ok(req_id: u64, vals: Vec<u64>) -> Response {
        Response {
            req_id,
            status: Status::Ok,
            vals,
            payload: Vec::new(),
            crc: 0,
        }
        .seal()
    }

    /// Success with bulk data attached.
    pub fn ok_with_payload(req_id: u64, vals: Vec<u64>, payload: Vec<u8>) -> Response {
        Response {
            req_id,
            status: Status::Ok,
            vals,
            payload,
            crc: 0,
        }
        .seal()
    }

    /// Convenience constructor for failure.
    pub fn err(req_id: u64, status: Status) -> Response {
        Response {
            req_id,
            status,
            vals: Vec::new(),
            payload: Vec::new(),
            crc: 0,
        }
        .seal()
    }

    fn checksum(&self) -> u64 {
        // FNV-1a over the wire image: req_id, status code, vals, payload.
        let mut h = fnv::OFFSET_BASIS;
        fnv::fold_bytes(&mut h, &self.req_id.to_le_bytes());
        fnv::fold_bytes(&mut h, &self.status.code().to_le_bytes());
        for v in &self.vals {
            fnv::fold_bytes(&mut h, &v.to_le_bytes());
        }
        fnv::fold_bytes(&mut h, &self.payload);
        h
    }

    /// Recomputes and installs the checksum; returns the sealed packet.
    pub(crate) fn seal(mut self) -> Response {
        self.crc = self.checksum();
        self
    }

    /// Whether the packet matches its checksum (i.e. was not corrupted in
    /// flight).
    pub fn intact(&self) -> bool {
        self.crc == self.checksum()
    }

    // Named views over `vals`. The scalar layout is a per-primitive wire
    // contract between the EMS dispatcher and the CS side; callers must go
    // through these instead of indexing `vals` so a layout change breaks
    // loudly here rather than silently mispricing or misparsing a reply.

    /// ECREATE: the EMS-assigned id of the new enclave.
    pub fn new_enclave_id(&self) -> Option<u64> {
        self.vals.first().copied()
    }

    /// EALLOC / ESHMAT: enclave VA the new region was mapped at.
    pub fn mapped_va(&self) -> Option<u64> {
        self.vals.first().copied()
    }

    /// EALLOC / ESHMAT: number of pages actually mapped.
    pub fn pages_mapped(&self) -> Option<u64> {
        self.vals.get(1).copied()
    }

    /// EWB: number of pages written back (encrypted + evicted).
    pub fn pages_written_back(&self) -> Option<u64> {
        self.vals.first().copied()
    }

    /// EWB: physical bases of the evicted frames, following the count.
    pub fn written_back_frames(&self) -> &[u64] {
        let count = self.pages_written_back().unwrap_or(0) as usize;
        self.vals.get(1..1 + count).unwrap_or(&[])
    }

    /// ESHMGET: the id of the new shared-memory segment.
    pub fn shm_id(&self) -> Option<u64> {
        self.vals.first().copied()
    }

    /// EENTER / ERESUME: (page-table root, entry PC, KeyID) to install on
    /// the entering hart.
    pub fn entry_context(&self) -> Option<(u64, u64, u64)> {
        match self.vals.as_slice() {
            [root, entry, key, ..] => Some((*root, *entry, *key)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn privilege_table_matches_paper() {
        use Primitive::*;
        assert_eq!(Ecreate.required_privilege(), Privilege::Os);
        assert_eq!(Eadd.required_privilege(), Privilege::Os);
        assert_eq!(Ewb.required_privilege(), Privilege::Os);
        assert_eq!(Emeas.required_privilege(), Privilege::Os);
        assert_eq!(Ealloc.required_privilege(), Privilege::User);
        assert_eq!(Eattest.required_privilege(), Privilege::User);
        assert_eq!(Eshmget.required_privilege(), Privilege::User);
        assert_eq!(Eexit.required_privilege(), Privilege::User);
    }

    #[test]
    fn all_returns_each_primitive_once() {
        let all = Primitive::all();
        assert_eq!(all.len(), 16);
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn response_constructors() {
        let ok = Response::ok(7, vec![1, 2]);
        assert_eq!(ok.status, Status::Ok);
        assert_eq!(ok.req_id, 7);
        let err = Response::err(8, Status::AccessDenied);
        assert!(err.vals.is_empty());
    }

    #[test]
    fn checksum_catches_any_field_tamper() {
        let sealed = Response::ok_with_payload(9, vec![3, 4], vec![0xaa, 0xbb]);
        assert!(sealed.intact());
        let mut t = sealed.clone();
        t.vals[0] ^= 1;
        assert!(!t.intact());
        let mut t = sealed.clone();
        t.payload[1] ^= 0x80;
        assert!(!t.intact());
        let mut t = sealed.clone();
        t.status = Status::Aborted;
        assert!(!t.intact());
        let mut t = sealed;
        t.req_id += 1;
        assert!(!t.intact());
    }

    #[test]
    fn named_accessors_follow_the_wire_layout() {
        let ealloc = Response::ok(1, vec![0x4000_0000, 512]);
        assert_eq!(ealloc.mapped_va(), Some(0x4000_0000));
        assert_eq!(ealloc.pages_mapped(), Some(512));

        let ewb = Response::ok(2, vec![2, 0x1000, 0x2000]);
        assert_eq!(ewb.pages_written_back(), Some(2));
        assert_eq!(ewb.written_back_frames(), &[0x1000, 0x2000]);

        let enter = Response::ok(3, vec![0x8000, 0x10_0000, 5]);
        assert_eq!(enter.entry_context(), Some((0x8000, 0x10_0000, 5)));

        let empty = Response::ok(4, vec![]);
        assert_eq!(empty.pages_mapped(), None);
        assert_eq!(empty.entry_context(), None);
        assert!(empty.written_back_frames().is_empty());
    }

    #[test]
    fn status_codes_are_distinct() {
        let all = [
            Status::Ok,
            Status::InvalidArgument,
            Status::PrivilegeMismatch,
            Status::AccessDenied,
            Status::Exhausted,
            Status::NotFound,
            Status::BadState,
            Status::MemFault,
            Status::Aborted,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.code(), b.code());
            }
        }
    }
}
