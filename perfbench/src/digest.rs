//! FNV-1a digests of simulated results, the form the correctness gate
//! compares and pins.

use neofog_core::fleet::{FleetResult, FleetStat};

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0100_0000_01b3;

/// A streaming 64-bit FNV-1a hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(OFFSET)
    }
}

impl Fnv {
    /// Mixes raw bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        for &byte in data {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(PRIME);
        }
    }

    /// Mixes a `u64` as its little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes an `f64` by its bit pattern, so any change in the last
    /// bit of a simulated statistic changes the digest.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The hash so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest over every field of a [`FleetResult`].
#[must_use]
pub fn fleet(result: &FleetResult) -> u64 {
    let mut h = Fnv::default();
    h.u64(result.chains as u64);
    h.u64(result.nodes as u64);
    for stat in [&result.fog, &result.total, &result.captured] {
        let FleetStat {
            mean,
            std_dev,
            min,
            p10,
            p50,
            p90,
            max,
        } = *stat;
        for v in [mean, std_dev, min, p10, p50, p90, max] {
            h.f64(v);
        }
    }
    h.u64(result.fog_sum);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_fnv1a_reference_vectors() {
        let mut empty = Fnv::default();
        empty.bytes(b"");
        assert_eq!(empty.finish(), 0xcbf2_9ce4_8422_2325);
        let mut a = Fnv::default();
        a.bytes(b"a");
        assert_eq!(a.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut foobar = Fnv::default();
        foobar.bytes(b"foobar");
        assert_eq!(foobar.finish(), 0x8594_4171_f739_67e8);
    }
}
