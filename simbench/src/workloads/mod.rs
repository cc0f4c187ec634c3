//! The benchmark's workloads.  Each stresses different layers; README.md
//! says which and why.

pub mod fleet_migrate;
pub mod host_v32;
pub mod serial_sw;

pub use fleet_migrate::FleetMigrate;
pub use host_v32::HostV32;
pub use serial_sw::SerialSw;
