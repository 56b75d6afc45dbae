package fleet

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/cheriot-go/cheriot/internal/audit"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/loader"
	"github.com/cheriot-go/cheriot/internal/prof"
	"github.com/cheriot-go/cheriot/policies"
)

// fleetPolicy is the integrator policy every fleet device must satisfy
// before launch: policies/fleet-device.rego, embedded so the pre-launch
// gate needs no filesystem access, and parsed once for every gate.
var fleetPolicy, errFleetPolicy = audit.ParsePolicy(policies.FleetDevice)

// RepresentativeImage builds the firmware image of the fleet's default
// (Go fleetapp) shape, without booting it: a copy of the image a Run
// builds once for every such device. Its app runs only with a fleet
// Device as the kernel's Env.
func RepresentativeImage(cfg Config) *firmware.Image {
	return buildImage(&cfg, &shape{firmware: FirmwareGo})
}

// shape is one firmware shape the fleet deploys, booted once per Run.
type shape struct {
	firmware string // the Profile.Firmware of the devices that run it
	ota      bool   // the rollout's updated image: the app plus the update agent
	// img is the image the launch builds and audits; a boot adds the TCB
	// to it, and a fork boots the capture's booted image as is.
	img *firmware.Image
	// report is the launch boot's audit report (nil under SkipAudit).
	report *firmware.Report
	// snap is the launch capture, which every device incarnation of the
	// shape forks (nil under NoSnapshot, where each one cold-boots img).
	snap  *loader.Snapshot
	forks atomic.Int64
}

// boot boots one device incarnation of the shape: a fork of the launch
// capture, which boots the captured image as is, or under NoSnapshot a
// cold boot of img. It skips the audit report: the launch audited the
// image.
func (sh *shape) boot() (*core.System, error) {
	opts := core.BootOptions{SkipReport: true}
	if sh.snap == nil {
		return core.BootWith(sh.img, opts)
	}
	sh.forks.Add(1)
	return core.Fork(sh.snap, opts), nil
}

// name is the shape's name in errors and stats: its firmware, with
// otaShapeSuffix on the rollout's updated image.
func (sh *shape) name() string {
	if sh.ota {
		return sh.firmware + otaShapeSuffix
	}
	return sh.firmware
}

// firmwareShapes lists the distinct firmware shapes the config deploys,
// in deterministic order (Go first).
func firmwareShapes(cfg Config) []*shape {
	hasGo, hasJS := len(cfg.Profiles) == 0, false
	for _, p := range cfg.Profiles {
		if p.Firmware == FirmwareJS {
			hasJS = true
		} else {
			hasGo = true
		}
	}
	var out []*shape
	if hasGo {
		out = append(out, &shape{firmware: FirmwareGo})
	}
	if hasJS {
		out = append(out, &shape{firmware: FirmwareJS})
	}
	if cfg.Rollout != nil {
		// A staged rollout deploys a second shape — the fleet app plus
		// the update-agent compartment — which must pass the same
		// pre-launch audit before any device is offered it.
		out = append(out, &shape{firmware: FirmwareGo, ota: true})
	}
	return out
}

// shapeFor returns the shape of a firmware image among the launched ones.
func shapeFor(shapes []*shape, fw string, ota bool) *shape {
	for _, sh := range shapes {
		if sh.firmware == fw && sh.ota == ota {
			return sh
		}
	}
	return nil
}

// launch builds each firmware shape's image and boots it exactly once,
// before any device is built. Unless SkipAudit, the fleet policy checks
// that boot's audit report, and a violation refuses the launch; both
// shapes name the application compartment "fleetapp", so one policy pins
// down both. Unless NoSnapshot, the boot is a capture, which every
// device incarnation forks. The boots themselves, like a device's System
// construction, count as HostProf's boot/cold inside boot, whose calls
// still count the devices built.
func launch(cfg Config, hp *prof.HostProfile) ([]*shape, error) {
	if !cfg.SkipAudit && errFleetPolicy != nil {
		return nil, fmt.Errorf("fleet audit: %w", errFleetPolicy)
	}
	shapes := firmwareShapes(cfg)
	for _, sh := range shapes {
		if sh.firmware == FirmwareJS && errFleetProgram != nil {
			return nil, fmt.Errorf("fleet: compile the jsvm app: %w", errFleetProgram)
		}
		sh.img = buildImage(&cfg, sh)
	}
	if cfg.SkipAudit && cfg.NoSnapshot {
		return shapes, nil // nothing to audit, nothing forks
	}
	var wall time.Duration
	for _, sh := range shapes {
		t0 := time.Now()
		sys, err := core.BootWith(sh.img, core.BootOptions{SkipReport: cfg.SkipAudit, CaptureSnapshot: !cfg.NoSnapshot})
		wall += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("fleet: boot the %s firmware: %w", sh.name(), err)
		}
		sys.Shutdown()
		sh.snap = sys.Snapshot
		if sh.report = sys.Report; sh.report != nil {
			if res := fleetPolicy.Check(sh.report); !res.Passed() {
				return nil, fmt.Errorf("fleet audit: launch refused, policy violations: %v", res.Failures())
			}
		}
	}
	hp.Add("boot", wall, 0)
	hp.Add("boot/cold", wall, uint64(len(shapes)))
	return shapes, nil
}
