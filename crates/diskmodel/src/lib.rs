//! Mechanical disk-drive model for the MimdRAID reproduction.
//!
//! Simulates the Seagate ST39133LWV-class drives of the paper's prototype
//! (Table 1): zoned geometry with track skew, a numerically calibrated
//! two-regime seek profile, constant-speed rotation, and — the paper's
//! §3.2 contribution — software-only head-position prediction with its
//! slack feedback loop.
//!
//! Layer map versus the paper's Figure 4:
//!
//! - *SCSI Abstraction Layer* → [`device::BlockDevice`]
//! - *Calibration Layer* → [`calibration`] (head tracking, slack control)
//!   plus [`seek::SeekProfile::fit`] (timing extraction)
//! - *Simulator* → [`disk::SimDisk`] with its two timing fidelities
//!   ([`disk::TimingPath`]), which the Figure-5 experiment cross-validates
//!
//! # Examples
//!
//! ```
//! use mimd_disk::{DiskParams, PositionKnowledge, SimDisk, Target, TimingPath};
//! use mimd_sim::SimTime;
//!
//! let mut disk = SimDisk::new(
//!     &DiskParams::st39133lwv(),
//!     TimingPath::Detailed,
//!     PositionKnowledge::Perfect,
//!     1,
//! )
//! .unwrap();
//! let target = Target { cylinder: 3000, surface: 4, angle: 0.25, sectors: 16 };
//! let service = disk.begin(SimTime::ZERO, &target, false);
//! assert!(service.total() > service.transfer);
//! ```

pub mod calibration;
pub mod device;
pub mod disk;
pub mod geometry;
pub mod mechanics;
pub mod params;
pub mod seek;

pub use device::{BlockDevice, DeviceError};
pub use disk::{PositionKnowledge, SimDisk, Target, TimingPath};
pub use geometry::{Chs, Geometry, ZoneInfo};
pub use mechanics::{frac1, mod1, ServiceBreakdown, Spindle};
pub use params::{DiskParams, ZoneSpec};
pub use seek::SeekProfile;
