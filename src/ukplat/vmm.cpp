#include "ukplat/vmm.h"

namespace ukplat {

// Constants reproduce the VMM share of Fig 10 (total minus guest): QEMU ~38ms,
// QEMU+1NIC ~42.7ms, QEMU microVM ~9ms, Solo5 and Firecracker ~3ms. uHyve is
// modeled slightly above Firecracker per the HermiTux discussion in §5.3.
VmmModel VmmModel::Qemu() {
  return VmmModel{.name = "qemu", .startup_us = 38300.0, .per_nic_us = 4300.0,
                  .pci_transport = true, .io_efficiency = 1.0};
}

VmmModel VmmModel::QemuMicroVm() {
  return VmmModel{.name = "qemu-microvm", .startup_us = 9000.0, .per_nic_us = 1200.0,
                  .pci_transport = false, .io_efficiency = 1.0};
}

VmmModel VmmModel::Firecracker() {
  return VmmModel{.name = "firecracker", .startup_us = 2600.0, .per_nic_us = 350.0,
                  .pci_transport = false, .io_efficiency = 0.55};
}

VmmModel VmmModel::Solo5() {
  return VmmModel{.name = "solo5", .startup_us = 2900.0, .per_nic_us = 200.0,
                  .pci_transport = false, .io_efficiency = 0.85};
}

VmmModel VmmModel::UHyve() {
  return VmmModel{.name = "uhyve", .startup_us = 4200.0, .per_nic_us = 500.0,
                  .pci_transport = false, .io_efficiency = 0.45};
}

}  // namespace ukplat
