package fleet

import (
	"fmt"
	"strings"

	"github.com/cheriot-go/cheriot/internal/audit"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
)

// FleetPolicy is the integrator policy every fleet device must satisfy
// before launch. The canonical copy lives at policies/fleet-device.rego
// (a sync test keeps the two identical); it is compiled in here so the
// pre-launch gate needs no filesystem access.
const FleetPolicy = `# Integrator policy for the fleet device firmware.
#
# fleet.Run checks the representative image of every firmware shape a
# fleet deploys against this policy before any device boots, and refuses
# the launch on a violation (cheriot-fleet -no-audit skips the check).

# Exactly one compartment may reconfigure the firewall: the network API.
rule single_firewall_configurer {
	count(compartments_calling_entry("firewall", "fw_allow")) == 1
}
rule netapi_is_the_configurer {
	contains(compartments_calling_entry("firewall", "fw_allow"), "netapi")
}

# Only the firewall compartment touches the NIC registers.
rule nic_exclusive {
	count(compartments_with_mmio("net")) == 1 &&
	contains(compartments_with_mmio("net"), "firewall")
}

# The fleet application must not bypass the stack: DNS, SNTP, MQTT, and
# the scheduler only — never the firewall or TCP/IP directly.
rule fleetapp_cannot_touch_firewall {
	!contains(compartments_calling("firewall"), "fleetapp")
}
rule fleetapp_cannot_touch_tcpip {
	!contains(compartments_calling("tcpip"), "fleetapp")
}

# Availability: quotas must fit the heap, and the fault-prone TCP/IP
# compartment must be micro-rebootable (it has an error handler).
rule quotas_fit_heap {
	sum_quotas() <= heap_size()
}
rule tcpip_is_fault_tolerant {
	has_error_handler("tcpip")
}

# Interrupt posture stays auditable: a bounded set of IRQ-disabling
# entry points.
rule bounded_irq_disable {
	count(exports_with_posture("disabled")) <= 16
}
`

// RepresentativeImage builds the firmware image of the fleet's default
// (Go fleetapp) shape, without booting it — the subject of the
// pre-launch audit. Devices of one shape are stamped from one image
// (only the IP and topic differ), so auditing one image per shape
// covers the whole fleet.
func RepresentativeImage(cfg Config) *firmware.Image {
	return representativeImage(cfg, FirmwareGo)
}

func representativeImage(cfg Config, fw string) *firmware.Image {
	base, withOTA := strings.CutSuffix(fw, otaAliasSuffix)
	d := &Device{IP: deviceIP(0), cfg: &cfg, Profile: Profile{Firmware: base}}
	img, _ := d.buildImage(withOTA)
	return img
}

// firmwareShapes lists the distinct firmware shapes the config deploys,
// in deterministic order (Go first).
func firmwareShapes(cfg Config) []string {
	cfg = cfg.withDefaults()
	hasGo, hasJS := len(cfg.Profiles) == 0, false
	for _, p := range cfg.Profiles {
		if p.Firmware == FirmwareJS {
			hasJS = true
		} else {
			hasGo = true
		}
	}
	var out []string
	if hasGo {
		out = append(out, FirmwareGo)
	}
	if hasJS {
		out = append(out, FirmwareJS)
	}
	if cfg.Rollout != nil {
		// A staged rollout deploys a second shape — the fleet app plus
		// the update-agent compartment — which must pass the same
		// pre-launch audit before any device is offered it.
		out = append(out, FirmwareGo+otaAliasSuffix)
	}
	return out
}

// Report boots the default shape's representative image once (the loader
// adds the TCB compartments the raw image lacks) and returns its linker
// audit report.
func Report(cfg Config) (*firmware.Report, error) {
	return report(cfg, FirmwareGo)
}

func report(cfg Config, fw string) (*firmware.Report, error) {
	sys, err := core.Boot(representativeImage(cfg, fw))
	if err != nil {
		return nil, fmt.Errorf("fleet audit: boot representative %s image: %w", fw, err)
	}
	defer sys.Shutdown()
	return sys.Report, nil
}

// Audit checks every deployed firmware shape's representative image
// against FleetPolicy, returning the first failing result (or the last
// passing one). Both shapes name the application compartment "fleetapp",
// so one policy pins down both.
func Audit(cfg Config) (*audit.Result, error) {
	var last *audit.Result
	for _, fw := range firmwareShapes(cfg) {
		rep, err := report(cfg, fw)
		if err != nil {
			return nil, err
		}
		res, err := audit.CheckSource(FleetPolicy, rep)
		if err != nil {
			return nil, fmt.Errorf("fleet audit (%s): %w", fw, err)
		}
		if !res.Passed() {
			return res, nil
		}
		last = res
	}
	return last, nil
}

// auditGate is the pre-launch check Run performs unless Config.SkipAudit
// is set: a policy failure refuses the launch.
func auditGate(cfg Config) error {
	res, err := Audit(cfg)
	if err != nil {
		return err
	}
	if !res.Passed() {
		return fmt.Errorf("fleet audit: launch refused, policy violations: %v", res.Failures())
	}
	return nil
}
