//@path crates/core/src/fx_float_fmod.rs
pub fn reference(x: f64) -> f64 {
    // simlint: allow(float-fmod) — fixture: the libm form kept as an oracle
    x.rem_euclid(1.0)
}
