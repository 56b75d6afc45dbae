package fleet

import (
	"fmt"
	"strings"

	"github.com/cheriot-go/cheriot/internal/audit"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/policies"
)

// fleetPolicy is the integrator policy every fleet device must satisfy
// before launch: policies/fleet-device.rego, embedded so the pre-launch
// gate needs no filesystem access, and parsed once for every gate.
var fleetPolicy, errFleetPolicy = audit.ParsePolicy(policies.FleetDevice)

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
// against the fleet policy, returning the first failing result (or the
// last passing one). Both shapes name the application compartment
// "fleetapp", so one policy pins down both.
func Audit(cfg Config) (*audit.Result, error) {
	if errFleetPolicy != nil {
		return nil, fmt.Errorf("fleet audit: %w", errFleetPolicy)
	}
	var last *audit.Result
	for _, fw := range firmwareShapes(cfg) {
		rep, err := report(cfg, fw)
		if err != nil {
			return nil, err
		}
		res := fleetPolicy.Check(rep)
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
