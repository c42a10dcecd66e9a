//! EMS-internal error type and its mapping onto mailbox status codes.

use hypertee_fabric::message::Status;
use hypertee_mem::MemFault;

/// Errors the EMS runtime raises while executing primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmsError {
    /// Arguments failed the sanity check (§III-B: "EMS conducts a sanity
    /// check on its arguments to ensure legitimacy").
    InvalidArgument,
    /// The caller's privilege or identity does not authorise the action.
    AccessDenied,
    /// The referenced enclave or shared region does not exist.
    NotFound,
    /// The object is in the wrong life-cycle state for this primitive.
    BadState,
    /// Resources exhausted (frames, pool, KeyIDs).
    Exhausted,
    /// An underlying memory fault.
    Mem(MemFault),
    /// The primitive was aborted mid-flight; its partial effects were
    /// rolled back and the caller may retry the identical request.
    Aborted,
}

impl From<MemFault> for EmsError {
    fn from(f: MemFault) -> Self {
        EmsError::Mem(f)
    }
}

impl From<EmsError> for Status {
    fn from(e: EmsError) -> Status {
        match e {
            EmsError::InvalidArgument => Status::InvalidArgument,
            EmsError::AccessDenied => Status::AccessDenied,
            EmsError::NotFound => Status::NotFound,
            EmsError::BadState => Status::BadState,
            EmsError::Exhausted => Status::Exhausted,
            EmsError::Mem(_) => Status::MemFault,
            EmsError::Aborted => Status::Aborted,
        }
    }
}

impl core::fmt::Display for EmsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EmsError::InvalidArgument => write!(f, "invalid primitive arguments"),
            EmsError::AccessDenied => write!(f, "access denied"),
            EmsError::NotFound => write!(f, "object not found"),
            EmsError::BadState => write!(f, "object in wrong state"),
            EmsError::Exhausted => write!(f, "resources exhausted"),
            EmsError::Mem(m) => write!(f, "memory fault: {m}"),
            EmsError::Aborted => write!(f, "primitive aborted; partial effects rolled back"),
        }
    }
}

impl std::error::Error for EmsError {}

/// Shorthand result type for EMS operations.
pub(crate) type EmsResult<T> = Result<T, EmsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_mapping() {
        assert_eq!(
            Status::from(EmsError::InvalidArgument),
            Status::InvalidArgument
        );
        assert_eq!(Status::from(EmsError::AccessDenied), Status::AccessDenied);
        assert_eq!(Status::from(EmsError::Exhausted), Status::Exhausted);
        assert_eq!(Status::from(EmsError::NotFound), Status::NotFound);
        // Lossless: these must NOT collapse to InvalidArgument — the CS
        // side distinguishes "bad call" from "bad state" and "memory fault"
        // when deciding whether to retry.
        assert_eq!(Status::from(EmsError::BadState), Status::BadState);
        assert_eq!(
            Status::from(EmsError::Mem(MemFault::PageFault { va: 0x2000 })),
            Status::MemFault
        );
        assert_eq!(Status::from(EmsError::Aborted), Status::Aborted);
    }

    #[test]
    fn mem_fault_wraps() {
        let e: EmsError = MemFault::PageFault { va: 0x1000 }.into();
        assert!(matches!(
            e,
            EmsError::Mem(MemFault::PageFault { va: 0x1000 })
        ));
    }
}
