// ukplat/vmm.h - VMM launch-cost profiles for the boot-time experiments.
//
// Fig 10 of the paper splits total boot time into "VMM" and "Unikraft guest".
// The guest part is our real boot code (ukboot); the VMM part is a per-monitor
// constant that we encode here, taken from the paper's measurements on the
// i7-9700K testbed. The per-NIC surcharge models QEMU's PCI enumeration of an
// extra virtio device (Fig 10's "QEMU (1 NIC)" bar).
#ifndef UKPLAT_VMM_H_
#define UKPLAT_VMM_H_

#include <cstdint>
#include <string>

namespace ukplat {

struct VmmModel {
  std::string name;
  double startup_us = 0.0;       // process spawn + device model setup
  double per_nic_us = 0.0;       // PCI/MMIO enumeration per attached NIC
  bool pci_transport = true;     // false for Solo5/Firecracker-style MMIO
  // Relative VMM I/O efficiency (Firecracker's slower virtio handling shows up
  // in the paper's Redis results); 1.0 means QEMU/KVM-grade.
  double io_efficiency = 1.0;

  double LaunchUs(int nics) const { return startup_us + per_nic_us * nics; }

  static VmmModel Qemu();
  static VmmModel QemuMicroVm();
  static VmmModel Firecracker();
  static VmmModel Solo5();
  static VmmModel UHyve();
};

}  // namespace ukplat

#endif  // UKPLAT_VMM_H_
