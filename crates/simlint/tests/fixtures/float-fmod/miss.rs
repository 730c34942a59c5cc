//@path crates/diskmodel/src/fx_float_fmod.rs
use crate::mechanics::frac1;

// A comment naming `rem_euclid(1.0)` is not code.
pub fn angle_of(skew: f64, within: f64) -> f64 {
    frac1(skew + within)
}

// Other moduli, and integer remainders, are not revolution fractions.
pub fn others(x: f64, n: u64) -> (f64, f64, u64) {
    let label = "x % 1.0";
    let _ = label;
    (x.rem_euclid(2.0), x % 1.05, n % 1)
}

#[cfg(test)]
mod tests {
    #[test]
    fn oracle() {
        assert_eq!(super::angle_of(3.0, 0.25), (3.25f64).rem_euclid(1.0));
    }
}
