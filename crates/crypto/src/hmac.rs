//! HMAC-SHA256 and the key-derivation function used by EMS key management.
//!
//! §VI of the paper: "HyperTEE derives all keys from the root keys", e.g.
//! memory encryption keys from SK + enclave measurement, the attestation key
//! from SK + a random salt, sealing keys from SK + measurement. We model every
//! such derivation as `kdf(root, label, context)`.

use crate::sha256::Sha256;

const BLOCK: usize = 64;

/// Computes HMAC-SHA256 over `data` with `key`.
///
/// # Example
///
/// ```
/// let tag = hypertee_crypto::hmac::hmac_sha256(b"key", b"message");
/// assert_eq!(tag.len(), 32);
/// ```
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        let digest = crate::sha256::sha256(key);
        key_block[..32].copy_from_slice(&digest);
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; BLOCK];
    let mut opad = [0x5cu8; BLOCK];
    for i in 0..BLOCK {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }
    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(data);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// Derives a 32-byte key from a root key, a domain-separation label, and a
/// context string (HKDF-style extract-then-expand collapsed to one step,
/// sufficient for the fixed-size keys EMS uses).
///
/// # Example
///
/// ```
/// use hypertee_crypto::hmac::kdf;
/// let sealed = kdf(&[0u8; 32], b"sealing", b"enclave-measurement");
/// let attest = kdf(&[0u8; 32], b"attestation", b"enclave-measurement");
/// assert_ne!(sealed, attest);
/// ```
pub fn kdf(root: &[u8], label: &[u8], context: &[u8]) -> [u8; 32] {
    let mut msg = Vec::with_capacity(label.len() + 1 + context.len() + 1);
    msg.extend_from_slice(label);
    msg.push(0x00);
    msg.extend_from_slice(context);
    msg.push(0x01);
    hmac_sha256(root, &msg)
}

/// Derives a 16-byte AES key (for the memory encryption engine) from a root
/// key, label, and context.
pub fn kdf_aes128(root: &[u8], label: &[u8], context: &[u8]) -> [u8; 16] {
    let full = kdf(root, label, context);
    full[..16].try_into().expect("slice is 16 bytes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kdf_separates_labels_and_contexts() {
        let root = [7u8; 32];
        let a = kdf(&root, b"label-a", b"ctx");
        let b = kdf(&root, b"label-b", b"ctx");
        let c = kdf(&root, b"label-a", b"ctx2");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn kdf_no_label_context_ambiguity() {
        // ("ab", "c") must differ from ("a", "bc") thanks to the separator.
        let root = [9u8; 32];
        assert_ne!(kdf(&root, b"ab", b"c"), kdf(&root, b"a", b"bc"));
    }

    #[test]
    fn kdf_aes128_is_prefix() {
        let root = [1u8; 32];
        let full = kdf(&root, b"mem", b"e1");
        let short = kdf_aes128(&root, b"mem", b"e1");
        assert_eq!(&full[..16], &short);
    }
}
