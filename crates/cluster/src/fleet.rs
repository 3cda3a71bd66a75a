//! The device fleet: `n` simulated GPUs of one card plus the interconnect
//! gang-scheduled replicas exchange gradients over. One card is the rule
//! ([`ClusterSim::new`](crate::ClusterSim::new) holds every device to
//! device 0's card and DRAM), so every device answers admission alike.

use sn_runtime::Interconnect;
use sn_sim::DeviceSpec;

/// A cluster of simulated devices, all of one card.
#[derive(Clone)]
pub struct Fleet {
    pub devices: Vec<DeviceSpec>,
    pub interconnect: Interconnect,
}

impl Fleet {
    /// `n` identical devices.
    pub fn homogeneous(n: usize, spec: DeviceSpec, interconnect: Interconnect) -> Fleet {
        Fleet {
            devices: vec![spec; n],
            interconnect,
        }
    }

    pub fn len(&self) -> usize {
        self.devices.len()
    }

    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Aggregate DRAM across the fleet.
    pub fn total_dram(&self) -> u64 {
        self.devices.iter().map(|d| d.dram_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_fleet_sums_dram() {
        let f = Fleet::homogeneous(
            4,
            DeviceSpec::k40c().with_dram(1 << 30),
            Interconnect::pcie(),
        );
        assert_eq!(f.len(), 4);
        assert_eq!(f.total_dram(), 4 << 30);
    }
}
