package fleet

import (
	"testing"
	"time"

	"github.com/cheriot-go/cheriot/internal/audit"
	"github.com/cheriot-go/cheriot/policies"
)

// TestFleetAuditPasses: the shipped fleet firmware satisfies its own
// launch policy (this is the gate every Run() crosses) on the report of
// the launch boot of every shape it can deploy.
func TestFleetAuditPasses(t *testing.T) {
	mixed := Config{Profiles: []Profile{{Name: "go", Weight: 1}, {Name: "js", Weight: 1, Firmware: FirmwareJS}}}
	for _, cfg := range []Config{mixed, rolloutConfig(false, 20*time.Second)} {
		shapes, err := launch(cfg.withDefaults(), nil)
		if err != nil {
			t.Fatalf("launch: %v", err)
		}
		if len(shapes) != 2 {
			t.Fatalf("launched %d shapes, want 2", len(shapes))
		}
		for _, sh := range shapes {
			if sh.report == nil {
				t.Fatalf("%s: launch kept no report", sh.name())
			}
			if res := fleetPolicy.Check(sh.report); !res.Passed() {
				t.Fatalf("%s: fleet policy violations: %v", sh.name(), res.Failures())
			}
		}
	}
}

// TestFleetAuditGateRefuses: a firmware shape that breaks the policy
// must refuse to launch. The report is mutated the way a supply-chain
// attack would look (TCP/IP loses its error handler, so micro-reboot
// recovery is gone).
func TestFleetAuditGateRefuses(t *testing.T) {
	shapes, err := launch(Config{}.withDefaults(), nil)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	report := shapes[0].report
	tcpip, ok := report.Compartments["tcpip"]
	if !ok {
		t.Fatal("report has no tcpip compartment")
	}
	tcpip.HasErrorHandler = false
	report.Compartments["tcpip"] = tcpip

	res, err := audit.CheckSource(policies.FleetDevice, report)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if res.Passed() {
		t.Fatal("policy passed a firmware without TCP/IP fault tolerance")
	}
	found := false
	for _, f := range res.Failures() {
		if f == "tcpip_is_fault_tolerant" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected tcpip_is_fault_tolerant to fail, got %v", res.Failures())
	}
}
