//! Small helpers shared across the crate: constant-time comparison.

/// Compares two byte slices without early exit, so that comparison time does
/// not depend on where they first differ. Returns `true` when equal.
///
/// Note: in a real firmware this matters against timing attackers; in the
/// simulator it is kept for fidelity with the EMS runtime it models.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"sane"));
        assert!(!ct_eq(b"short", b"longer"));
        assert!(ct_eq(b"", b""));
    }
}
