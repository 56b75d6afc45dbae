package fleet

import (
	"testing"

	"github.com/cheriot-go/cheriot/internal/audit"
	"github.com/cheriot-go/cheriot/policies"
)

// TestFleetAuditPasses: the shipped fleet firmware satisfies its own
// launch policy (this is the gate every Run() crosses).
func TestFleetAuditPasses(t *testing.T) {
	res, err := Audit(Config{})
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if !res.Passed() {
		t.Fatalf("fleet policy violations: %v", res.Failures())
	}
}

// TestFleetAuditGateRefuses: a firmware shape that breaks the policy
// must refuse to launch. The report is mutated the way a supply-chain
// attack would look (TCP/IP loses its error handler, so micro-reboot
// recovery is gone).
func TestFleetAuditGateRefuses(t *testing.T) {
	report, err := Report(Config{})
	if err != nil {
		t.Fatalf("report: %v", err)
	}
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
