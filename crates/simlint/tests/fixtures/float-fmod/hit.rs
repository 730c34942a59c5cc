//@path crates/diskmodel/src/fx_float_fmod.rs
pub fn angle_of(skew: f64, within: f64) -> f64 {
    (skew + within).rem_euclid(1.0)
}

pub fn wrap(x: f64) -> f64 {
    let mut r = x % 1.0;
    r %= 1.0_f64;
    r
}
